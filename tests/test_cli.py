import json

from modrep.cli import COMMAND_OPERATIONS, main

BIG = "18,16,15,15,12,7,7,5,0,-4,-8,-12,-15,-19"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_signature_worked_example(capsys):
    code, out, _ = run(capsys, "signature", "--p", "5", "--alpha", "2",
                       "--weight", BIG)
    assert code == 0
    assert out == ("raw: --+-++++--\n"
                   "raw rows: 1,5,6,8,9,10,11,12,13,14\n"
                   "reduced: ++--\n"
                   "reduced rows: 11,12,13,14\n")


def test_crystal_op_worked_example(capsys):
    code, out, _ = run(capsys, "crystal-op", "--f", "--p", "5", "--alpha", "2",
                       "--weight", BIG)
    assert code == 0
    assert out == "18,16,15,15,12,7,7,5,0,-4,-8,-11,-15,-19\n"
    code, out, _ = run(capsys, "crystal-op", "--e", "--p", "5", "--alpha", "2",
                       "--weight", BIG)
    assert code == 0
    assert out == "18,16,15,15,12,7,7,5,0,-4,-8,-12,-16,-19\n"


def test_crystal_op_null(capsys):
    code, out, _ = run(capsys, "crystal-op", "--e", "--p", "5", "--alpha", "1",
                       "--weight", "0,0")
    assert code == 0
    assert out == "null\n"


def test_crystal_op_partition_json(capsys):
    code, out, _ = run(capsys, "crystal-op", "--f", "--p", "3", "--alpha", "2",
                       "--partition", "1", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["result"] == [1, 1]
    assert obj["epsilon"] == 0 and obj["phi"] == 1


def test_hecke_verify(capsys):
    code, out, _ = run(capsys, "hecke-verify", "--p", "3", "--n", "2",
                       "--N", "2", "--d", "1")
    assert code == 0
    assert out == "all relations hold\n"


def test_character_verify(capsys):
    code, out, _ = run(capsys, "character", "--weight", "2,0", "--verify")
    assert code == 0
    assert "dimension: 3" in out
    assert "casimir scalar: " in out
    assert "weyl formula: ok" in out


def test_pieri(capsys):
    code, out, _ = run(capsys, "pieri", "--weight", "2,1,0")
    assert code == 0
    assert "pieri holds" in out


def test_fock_apply_wedge(capsys):
    code, out, _ = run(capsys, "fock-apply", "--model", "wedge", "--f",
                       "--p", "5", "--alpha", "2", "--weight", "2,1")
    assert code == 0
    assert "1 3,1" in out
    code, out, _ = run(capsys, "fock-apply", "--model", "partition", "--h",
                       "--p", "3", "--alpha", "0", "--partition", "0")
    assert code == 0
    assert "1 0" in out  # h_0 fixes the empty diagram with eigenvalue 1


def test_fock_relations(capsys):
    code, out, _ = run(capsys, "fock-relations", "--model", "partition",
                       "--p", "3", "--max-size", "4")
    assert code == 0
    assert out == "all relations hold\n"


def test_groth_check(capsys):
    code, out, _ = run(capsys, "groth-check", "--p", "3", "--weight", "1,0")
    assert code == 0
    assert "intertwiner verified" in out


def test_eigendims(capsys):
    code, out, _ = run(capsys, "eigendims", "--p", "3", "--n", "3", "--d", "1")
    assert code == 0
    assert "alpha 1: dim 6 predicted 6" in out


def test_classify_component(capsys):
    code, out, _ = run(capsys, "classify-component", "--p", "2", "--max-size", "4")
    assert code == 0
    assert "match: true" in out
    assert "singular: 0" in out


def test_branch(capsys):
    code, out, _ = run(capsys, "branch", "--p", "2", "--partition", "2,1")
    assert code == 0
    assert out == "1: 1,1\n"


def test_crystal_graph_dot(capsys):
    code, out, _ = run(capsys, "crystal-graph", "--p", "2", "--partition", "0",
                       "--max-steps", "2", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph crystal {")
    assert '"1" -> "1,1"' in out


def test_exit_code_invalid_input(capsys):
    code, _, err = run(capsys, "signature", "--p", "4", "--alpha", "1",
                       "--weight", "1,0")
    assert code == 2
    assert "prime" in err
    code, _, err = run(capsys, "signature", "--p", "5", "--alpha", "7",
                       "--weight", "1,0")
    assert code == 2
    code, _, err = run(capsys, "signature", "--p", "5", "--alpha", "1",
                       "--weight", "0,1")
    assert code == 2
    code, _, _ = run(capsys, "no-such-command")
    assert code == 2
    code, _, _ = run(capsys, "fock-relations", "--model", "wedge", "--p", "2",
                     "--n", "2", "--window", "3")
    assert code == 2


def test_large_moduli(capsys):
    # a 60-bit prime is accepted at once; 2^64 and above are refused
    code, out, _ = run(capsys, "signature", "--p", "1000000000000000003",
                       "--alpha", "1", "--weight", "1,0")
    assert code == 0 and out.startswith("raw: ")
    code, _, err = run(capsys, "signature", "--p", str(2 ** 64 + 13),
                       "--alpha", "1", "--weight", "1,0")
    assert code == 2 and "2^64" in err
    # eigendims lists every residue, so p is bounded before any work
    code, _, err = run(capsys, "eigendims", "--p", "1000003", "--n", "1", "--d", "0")
    assert code == 2 and "at most" in err


def test_exit_code_verification_failure(capsys, monkeypatch):
    import modrep.cli as cli_mod
    monkeypatch.setattr(cli_mod.hecke, "verify_hecke_relations",
                        lambda *a, **k: ["X1 X2 != X2 X1"])
    code, out, _ = run(capsys, "hecke-verify", "--p", "3", "--n", "2",
                       "--N", "2", "--d", "0")
    assert code == 1
    assert "violated" in out


def test_deterministic_output(capsys):
    for argv in (
        ["signature", "--p", "5", "--alpha", "2", "--weight", BIG],
        ["character", "--weight", "2,1,0", "--format", "json"],
        ["crystal-graph", "--p", "3", "--partition", "0", "--max-steps", "3",
         "--format", "json"],
        ["eigendims", "--p", "3", "--n", "2", "--d", "2", "--format", "json"],
    ):
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second


def test_every_operation_reachable():
    required_operations = {
        # weights
        "dominance_leq", "is_dominant", "addable_rows", "removable_rows",
        "box_content", "addable_boxes", "removable_boxes", "weight_to_beta",
        "beta_to_weight",
        # characters
        "weyl_character", "alternant", "verify_weyl_formula", "dimension",
        "tensor_filtration_f", "tensor_filtration_e", "verify_pieri",
        "casimir_scalar",
        # fock
        "chevalley_f_line", "chevalley_e_line", "wedge_apply", "fock_apply",
        "weight_of", "h_apply", "check_kac_moody_relations", "groth_f",
        "groth_e",
        # crystal
        "alpha_signature", "reduce_signature", "crystal_f", "crystal_e",
        "partition_crystal_f", "partition_crystal_e", "string_lengths",
        "crystal_graph", "singular_vertices", "empty_component_classification",
        "branching", "graph_to_dot", "graph_to_json_obj",
        # hecke
        "matrix_unit_action", "casimir", "casimir_normal_ordered",
        "tensor_casimir", "build_Xi", "build_Ti", "verify_hecke_relations",
        "generalized_eigenspaces", "predicted_F_alpha_dims", "syt_count",
        "verify_flip_identity", "verify_casimir_coproduct",
        "x_on_module_tower",
    }
    covered = {op for ops in COMMAND_OPERATIONS.values() for op in ops}
    assert required_operations <= covered
    missing_commands = set(COMMAND_OPERATIONS) - {
        "signature", "crystal-op", "crystal-graph", "character", "pieri",
        "fock-apply", "fock-relations", "groth-check", "hecke-verify",
        "eigendims", "classify-component", "branch"}
    assert not missing_commands


def test_json_outputs_parse(capsys):
    for argv in (
        ["signature", "--p", "5", "--alpha", "2", "--weight", BIG,
         "--format", "json"],
        ["fock-apply", "--model", "wedge", "--e", "--p", "3", "--alpha", "0",
         "--weight", "3,1", "--format", "json"],
        ["hecke-verify", "--p", "3", "--n", "2", "--N", "2", "--d", "0",
         "--format", "json"],
        ["branch", "--p", "3", "--partition", "2,1", "--format", "json"],
        ["groth-check", "--p", "3", "--weight", "2,0", "--format", "json"],
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        json.loads(out)
