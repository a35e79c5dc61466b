"""Static commutativity prover: recognition, rejection, merge-back,
end-to-end bit identity, and the staged-pipeline certificate keys."""

import pytest

from repro import expand_and_run
from repro.analysis.commutative import (
    CERT_SCHEMA_VERSION, identity_value, prove_reductions,
)
from repro.analysis.privatization import classify
from repro.analysis.access_classes import build_access_classes
from repro.analysis.profiler import profile_loop
from repro.bench import get
from repro.frontend import ast, parse_and_analyze
from repro.frontend.ctypes import INT
from repro.interp import Machine
from repro.runtime import RaceError, process_backend_available
from repro.service import CompileOptions, Job
from repro.transform import expand_for_threads


def _prove(source, label="L"):
    program, sema = parse_and_analyze(source)
    loop = ast.find_loop(program, label)
    profile = profile_loop(program, sema, loop, "main")
    priv = classify(profile.ddg, build_access_classes(profile.ddg))
    return prove_reductions(program, sema, loop, profile, priv)


def _loop_program(body, decls="int acc;", pre="", post=""):
    return f"""
    {decls}
    int main(void) {{
        int i;
        {pre}
        #pragma expand parallel(doall)
        L: for (i = 0; i < 32; i++) {{
            {body}
        }}
        {post}
        print_int(acc);
        return 0;
    }}
    """


class TestRecognizer:
    @pytest.mark.parametrize("body,group,pre", [
        ("acc += i;", "add", ""),
        ("acc -= i;", "add", ""),
        ("acc = acc + i;", "add", ""),
        ("acc = i + acc;", "add", ""),
        ("acc++;", "add", ""),
        ("acc *= i + 1;", "mul", ""),
        ("acc &= i;", "and", ""),
        ("acc |= i;", "or", ""),
        ("acc ^= i;", "xor", ""),
        ("if (i > acc) { acc = i; }", "max", ""),
        # min guards need a high seed or the profiled run never
        # stores and the class has no carried conflict to prove away
        ("if (acc > i) { acc = i; }", "min", "acc = 100;"),
        ("if (i < acc) { acc = i; }", "min", "acc = 100;"),
    ])
    def test_update_forms(self, body, group, pre):
        proven = _prove(_loop_program(body, pre=pre))
        assert [r.group for r in proven] == [group]
        assert proven[0].name == "acc"
        assert proven[0].identity == identity_value(group, INT)

    @pytest.mark.parametrize("body", [
        # accumulator read outside its update
        "acc += i; print_int(acc);",
        # order-sensitive read-modify-write
        "acc = i - acc;",
        # two different op groups on one accumulator
        "acc += i; acc *= 2;",
        # value depends on the accumulator itself
        "acc += acc;",
        # address-like guard with an else branch
        "if (i > acc) { acc = i; } else { acc = 0; }",
    ])
    def test_rejections(self, body):
        assert _prove(_loop_program(body)) == []

    def test_induction_variable_not_a_reduction(self):
        # `i` is read by the loop condition/body: never upgraded
        proven = _prove(_loop_program("acc += 1;"))
        assert [r.name for r in proven] == ["acc"]

    def test_interprocedural_updates(self):
        source = """
        int acc;
        void bump(int v) { acc += v; }
        int main(void) {
            int i;
            #pragma expand parallel(doall)
            L: for (i = 0; i < 32; i++) { bump(i); }
            print_int(acc);
            return 0;
        }
        """
        proven = _prove(source)
        assert [r.name for r in proven] == ["acc"]

    def test_array_accumulator(self):
        source = _loop_program("acc[i & 3] += i;", decls="int acc[4];",
                               post="").replace("print_int(acc);",
                                                "print_int(acc[0]);")
        proven = _prove(source)
        assert [r.name for r in proven] == ["acc"]
        assert proven[0].is_array and proven[0].length == 4

    def test_escaped_address_rejected(self):
        source = """
        int acc;
        int main(void) {
            int i;
            int *p = &acc;
            #pragma expand parallel(doall)
            L: for (i = 0; i < 32; i++) { acc += i; }
            print_int(*p);
            return 0;
        }
        """
        assert _prove(source) == []


class TestPipelineIntegration:
    def test_histogram_upgrades_three_accumulators(self):
        spec = get("histogram")
        program, sema = parse_and_analyze(spec.source)
        result = expand_for_threads(program, sema, ["L"])
        assert result.commutative_sites
        assert result.reduction_merges == 3
        (tl,) = result.loops
        assert {r.name for r in tl.priv.reductions.values()} == \
            {"hist", "total", "maxv"}
        assert len(tl.priv.commutative_classes()) == 3
        # commutative sites are private (expanded) but tracked apart
        assert tl.priv.commutative_sites <= tl.priv.private_sites

    def test_certificate_shape(self):
        spec = get("histogram")
        program, sema = parse_and_analyze(spec.source)
        result = expand_for_threads(program, sema, ["L"])
        cert = result.loops[0].certificate
        assert cert["schema"] == CERT_SCHEMA_VERSION
        assert cert["loop"] == "L"
        cats = {c["category"] for c in cert["classes"]}
        assert "commutative" in cats
        ops = {r["op"] for r in cert["reductions"]}
        assert ops == {"add", "max"}
        for red in cert["reductions"]:
            assert red["updates"] and red["facts"]["value_flow"]

    def test_certificate_is_json_serializable(self):
        import json
        spec = get("histogram")
        program, sema = parse_and_analyze(spec.source)
        result = expand_for_threads(program, sema, ["L"])
        round_tripped = json.loads(json.dumps(result.loops[0].certificate))
        assert round_tripped["loop"] == "L"

    def test_disabled_prover_leaves_classes_alone(self):
        spec = get("histogram")
        program, sema = parse_and_analyze(spec.source)
        result = expand_for_threads(program, sema, ["L"],
                                    commutative=False)
        assert not result.commutative_sites
        assert result.reduction_merges == 0
        assert result.loops[0].certificate is None


class TestEndToEnd:
    def _outputs(self, engine, **kwargs):
        spec = get("histogram")
        return expand_and_run(
            job=Job(spec.source, ["L"], CompileOptions(engine=engine),
                    **kwargs))

    def test_bit_identical_simulated_ast(self):
        out = self._outputs(engine="ast")
        assert out.verified and not out.races

    def test_bit_identical_simulated_bytecode(self):
        out = self._outputs(engine="bytecode")
        assert out.verified and not out.races

    @pytest.mark.skipif(not process_backend_available(),
                        reason="no OS shared-memory backend here")
    def test_bit_identical_process_backend(self):
        out = self._outputs(backend="process", engine="bytecode")
        assert out.verified and not out.races

    def test_ablation_races_without_prover(self):
        """The seed pipeline rejects this loop: with the prover off the
        carried flow deps survive and the race checker fires."""
        spec = get("histogram")
        program, sema = parse_and_analyze(spec.source)
        result = expand_for_threads(program, sema, ["L"],
                                    commutative=False)
        from repro.runtime import run_parallel
        with pytest.raises(RaceError):
            run_parallel(result,
                         job=Job(spec.source, ("L",), nthreads=4))

    def test_sequential_semantics_preserved(self):
        """The transformed program (merge-back included) is still a
        correct *sequential* program."""
        spec = get("histogram")
        program, sema = parse_and_analyze(spec.source)
        base = Machine(program, sema)
        base.run()
        result = expand_for_threads(program, sema, ["L"])
        par = Machine(result.program, result.sema)
        par.run()
        assert par.output == base.output


class TestStageCacheCertificates:
    def test_warm_hit_restores_certificate(self, tmp_path):
        from repro.service import StageCache
        spec = get("histogram")
        job = Job(spec.source, ["L"])
        out1 = expand_and_run(job=job, cache=StageCache(tmp_path))
        assert out1.cache_report["classify"] == "miss"
        out2 = expand_and_run(job=job, cache=StageCache(tmp_path))
        assert out2.cache_report["classify"] == "hit"
        cert = out2.transform.loops[0].certificate
        assert cert["schema"] == CERT_SCHEMA_VERSION
        assert len(cert["reductions"]) == 3
        # the restored certificate still passes independent re-proof
        from repro.lint import run_lint
        report = run_lint(out2.transform, codes=["LINT-CERT"])
        assert report.clean
        assert report.certificates[0]["verdict"] == "verified"

    def test_schema_bump_invalidates_classify_key(self, monkeypatch):
        from repro.analysis import commutative
        from repro.service.stages import stage_keys
        spec = get("histogram")
        job = Job(spec.source, ["L"])
        before = stage_keys(job)
        monkeypatch.setattr(commutative, "CERT_SCHEMA_VERSION",
                            commutative.CERT_SCHEMA_VERSION + 1)
        after = stage_keys(job)
        assert before["profile"] == after["profile"]
        assert before["classify"] != after["classify"]
        assert before["expand"] != after["expand"]

    def test_commutative_toggle_changes_classify_key(self):
        from repro.service.stages import stage_keys
        spec = get("histogram")
        on = stage_keys(Job(spec.source, ["L"]))
        off = stage_keys(Job(spec.source, ["L"],
                             CompileOptions(commutative=False)))
        assert on["profile"] == off["profile"]
        assert on["classify"] != off["classify"]

    def test_options_wire_roundtrip(self):
        opts = CompileOptions(commutative=False)
        assert CompileOptions.from_dict(opts.to_dict()) == opts
        # pre-1.6 payloads (no commutative field) still decode
        legacy = opts.to_dict()
        del legacy["commutative"]
        assert CompileOptions.from_dict(legacy).commutative is True
