import pytest

from smdp import circuit as ct
from smdp import mdp as md
from smdp.cli import build_parser, main
from smdp.cnf import Cnf, to_dimacs
from smdp.policy import StationaryPolicy, save_policy
from smdp.verify import SUITES, run_suite, suite_dnf


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def write_cnf(tmp_path, cnf, name="f.cnf"):
    path = tmp_path / name
    path.write_text(to_dimacs(cnf))
    return str(path)


def coin_files(tmp_path, horizon=3):
    b = ct.CircuitBuilder(3)
    t = b.build([b.const(1)])
    rb = ct.CircuitBuilder(1)
    r = rb.build([rb.const(0), rb.inp(0)])
    m = md.SuccinctMdp(("x1",), (0,), ("toss",), t, r, prob_denominator=2)
    mpath = md.save_mdp(m, tmp_path, horizon=horizon)
    pb = ct.CircuitBuilder(1)
    ppath = save_policy(StationaryPolicy(pb.build([pb.const(0)]), 1), tmp_path)
    return str(mpath), str(ppath)


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as e:
        main(["gen-satnext"])  # missing cnf and -o
    assert e.value.code == 1
    with pytest.raises(SystemExit) as e:
        main(["no-such-command"])
    assert e.value.code == 1


def test_missing_file_exits_1(tmp_path, capsys):
    code, _, err = run(["eval", str(tmp_path / "absent"), str(tmp_path / "p")], capsys)
    assert code == 1
    assert "error" in err


def test_gen_then_eval_pipeline(tmp_path, capsys):
    cnf = write_cnf(tmp_path, Cnf(2, ((1, 2),)))
    out = tmp_path / "inst"
    code, text, _ = run(["gen-majsat", cnf, "-o", str(out)], capsys)
    assert code == 0 and "wrote" in text
    code, text, _ = run(
        ["eval", str(out / "mdp.manifest"), str(out / "policy.manifest")], capsys
    )
    assert code == 0
    assert text.strip() == "3/4"
    assert "expected_reward 3/4" in (out / "expected.txt").read_text()


SATNEXT = (
    "best next action at the encoded state is S iff the formula is satisfiable "
    "(brute-force SAT check); the unsat branch is worth exactly 2\n"
)
EMAJSAT = (
    "a policy meeting the reward bound exists iff some X-assignment has at least half "
    "of its Y-extensions satisfying the formula (brute-force enumeration)\n"
)
EMAJSAT_ALL = (
    "a policy meeting the reward bound exists iff some X-assignment has all "
    "of its Y-extensions satisfying the formula (brute-force enumeration)\n"
)
UNSATCONS = (
    "the all-zero value function is consistent iff the formula has no model "
    "(brute-force SAT check)\n"
)
COMPACT = "mode compact: clause block shrunk to the instance clause count\n"


@pytest.mark.parametrize(
    "argv, cnf, want",
    [
        (["gen-satnext"], Cnf(1, ((1, 1, 1),)),
         SATNEXT + COMPACT + "expected_action S  [derived: brute-force SAT]\n"),
        (["gen-satnext", "--mode", "faithful"], Cnf(1, ((1, 1, 1), (-1, -1, -1))),
         SATNEXT + "expected_action U  [derived: brute-force SAT]\n"),
        (["gen-majsat"], Cnf(2, ((1, 2),)),
         "exact reward of the sequential policy equals model_count / 2^n "
         "(brute-force model count)\n"
         "expected_reward 3/4  [derived: brute-force model count]\n"),
        (["gen-emajsat", "--num-x", "1"], Cnf(2, ((1, -2), (-1, 2))),
         EMAJSAT + "expected_exists yes  [derived: brute-force enumeration]\n"),
        (["gen-emajsat", "--num-x", "1", "--faithful-k"], Cnf(2, ((2,), (-2,))),
         EMAJSAT_ALL + "expected_exists no  [derived: brute-force enumeration]\n"),
        (["gen-unsatcons"], Cnf(2, ((1,), (-1,))),
         UNSATCONS + "expected_consistent  [derived: brute-force SAT]\n"),
        (["gen-unsatcons"], Cnf(2, ((1, 2),)),
         UNSATCONS + "expected_inconsistent  [derived: brute-force SAT]\n"),
        (["gen-forall", "--num-x", "1"], Cnf(2, ((1,),)),
         "a reward-1 deterministic X-choice exists iff some X-assignment has all "
         "Y-extensions satisfying the formula (brute-force check)\n"
         "expected_exists yes  [derived: brute-force enumeration]\n"),
        # half of each X-assignment's extensions satisfy x1 <-> x2, none all of them
        (["gen-emajsat", "--num-x", "1", "--faithful-k"], Cnf(2, ((1, -2), (-1, 2))),
         EMAJSAT_ALL + "expected_exists no  [derived: brute-force enumeration]\n"),
    ],
)
def test_gen_writes_the_oracle_answer_to_expected_txt(tmp_path, capsys, argv, cnf, want):
    out = tmp_path / "inst"
    assert run(argv + [write_cnf(tmp_path, cnf), "-o", str(out)], capsys)[0] == 0
    assert (out / "expected.txt").read_text() == want


def test_faithful_k_answers_for_the_reward_bound_of_1(tmp_path, capsys):
    cnf = write_cnf(tmp_path, Cnf(2, ((1, -2), (-1, 2))))
    out = tmp_path / "inst"
    assert run(["gen-emajsat", "--num-x", "1", "--faithful-k", cnf, "-o", str(out)], capsys)[0] == 0
    assert "reward_bound 1/1" in (out / "instance.txt").read_text()
    assert "expected_exists no" in (out / "expected.txt").read_text()
    code, text, _ = run(["solve", str(out / "mdp.manifest"), "--emit", "records"], capsys)
    assert code == 0
    assert dict(line.split("=", 1) for line in text.strip().splitlines())["value"] == "1/2"


def test_gen_satnext_and_next_action_exit_codes(tmp_path, capsys):
    cnf = write_cnf(tmp_path, Cnf(1, ((1, 1, 1),)))
    out = tmp_path / "inst"
    code, _, _ = run(["gen-satnext", cnf, "-o", str(out)], capsys)
    assert code == 0
    instance = dict(
        line.split(None, 1)
        for line in (out / "instance.txt").read_text().splitlines()
        if line.strip()
    )
    state, steps = instance["state"], instance["steps_remaining"]
    args = ["next-action", str(out / "mdp.manifest"), "--state", state, "--steps", steps]
    code, text, _ = run(args + ["--action", "S"], capsys)
    assert code == 0 and text.strip() == "S"
    code, _, _ = run(args + ["--action", "U"], capsys)
    assert code == 2
    with pytest.raises(SystemExit) as e:
        main(args + ["--action", "bogus"])
    assert e.value.code == 1
    assert capsys.readouterr().out == ""  # the optimal actions went out before the usage error


def test_next_action_rejects_a_state_of_the_wrong_width(tmp_path, capsys):
    cnf = write_cnf(tmp_path, Cnf(1, ((1, 1, 1),)))
    out = tmp_path / "inst"
    assert run(["gen-satnext", cnf, "-o", str(out)], capsys)[0] == 0
    args = ["next-action", str(out / "mdp.manifest"), "--state", "01", "--steps", "1"]
    code, text, err = run(args, capsys)
    assert code == 1 and text == ""
    assert "is not a 0/1 state of width" in err and "(it has width 2)" in err
    assert "Traceback" not in err


def test_emit_records_format(tmp_path, capsys):
    mpath, ppath = coin_files(tmp_path)
    code, text, _ = run(["eval", mpath, ppath, "--emit", "records"], capsys)
    assert code == 0
    records = dict(line.split("=", 1) for line in text.strip().splitlines())
    assert records["reward"] == "3/2"
    assert records["trajectories"] == "8"
    assert records["depth_0"] == "0/1"


def test_eval_mc_output(tmp_path, capsys):
    mpath, ppath = coin_files(tmp_path)
    code, text, _ = run(
        ["eval-mc", mpath, ppath, "--samples", "500", "--seed", "7"], capsys
    )
    assert code == 0 and "stderr" in text


def test_eval_mc_rejects_negative_horizon(tmp_path, capsys):
    mpath, ppath = coin_files(tmp_path)
    code, text, err = run(["eval-mc", mpath, ppath, "--horizon", "-2"], capsys)
    assert code == 1 and text == ""
    assert "horizon must be nonnegative" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["eval", "eval-mc"])
def test_eval_rejects_a_policy_of_another_width(tmp_path, capsys, command):
    mpath, _ = coin_files(tmp_path)
    pb = ct.CircuitBuilder(3)
    ppath = save_policy(StationaryPolicy(pb.build([pb.const(0)]), 1), tmp_path, "wide")
    code, text, err = run([command, mpath, str(ppath)], capsys)
    assert code == 1 and text == ""
    assert "policy reads 3 state bits, the model has 1" in err and "Traceback" not in err


def test_bad_manifest_integer_names_its_key(tmp_path, capsys):
    mpath, ppath = coin_files(tmp_path)
    text = open(ppath).read().replace("actions 1", "actions two")
    with open(ppath, "w") as fh:
        fh.write(text)
    code, _, err = run(["eval", mpath, ppath], capsys)
    assert code == 1
    assert "'actions' must be an integer, got 'two'" in err


def test_horizon_flag_overrides_manifest(tmp_path, capsys):
    mpath, ppath = coin_files(tmp_path)
    code, text, _ = run(["eval", mpath, ppath, "--horizon", "1"], capsys)
    assert code == 0 and text.strip() == "1/2"


def test_solve_reports_value_and_actions(tmp_path, capsys):
    mpath, _ = coin_files(tmp_path)
    code, text, _ = run(["solve", mpath, "--emit", "records"], capsys)
    assert code == 0
    records = dict(line.split("=", 1) for line in text.strip().splitlines())
    assert records["value"] == "3/2"
    assert records["optimal_actions"] == "toss"


@pytest.mark.parametrize("horizon", ["-1", "-3"])
def test_solve_rejects_negative_horizon(tmp_path, capsys, horizon):
    mpath, _ = coin_files(tmp_path)
    code, text, err = run(["solve", mpath, "--horizon", horizon], capsys)
    assert code == 1 and text == ""
    assert "horizon must be nonnegative" in err


def test_check_consistency_exit_codes(tmp_path, capsys):
    cnf_unsat = write_cnf(tmp_path, Cnf(1, ((1,), (-1,))), "u.cnf")
    cnf_sat = write_cnf(tmp_path, Cnf(1, ((1,),)), "s.cnf")
    good, bad = tmp_path / "good", tmp_path / "bad"
    assert run(["gen-unsatcons", cnf_unsat, "-o", str(good)], capsys)[0] == 0
    assert run(["gen-unsatcons", cnf_sat, "-o", str(bad)], capsys)[0] == 0
    code, text, _ = run(
        ["check-consistency", str(good / "mdp.manifest"), str(good / "valuefn.manifest")],
        capsys,
    )
    assert code == 0 and text.strip() == "consistent"
    code, text, _ = run(
        ["check-consistency", str(bad / "mdp.manifest"), str(bad / "valuefn.manifest")],
        capsys,
    )
    assert code == 2 and "inconsistent at state" in text


@pytest.mark.parametrize("horizon", ["5", "-1"])
def test_check_consistency_rejects_horizon_out_of_range(tmp_path, capsys, horizon):
    # the all-zero state is a model, so the check used to answer "inconsistent
    # at state 000" before it read a step index the value function lacks
    cnf = write_cnf(tmp_path, Cnf(3, ((-1, -2),)))
    out = tmp_path / "inst"
    assert run(["gen-unsatcons", cnf, "-o", str(out)], capsys)[0] == 0
    args = ["check-consistency", str(out / "mdp.manifest"), str(out / "valuefn.manifest")]
    code, text, err = run(args + ["--horizon", horizon], capsys)
    assert code == 1 and text == ""
    assert f"horizon {horizon} out of range 0..3" in err and "Traceback" not in err
    code, text, _ = run(args + ["--horizon", "3"], capsys)
    assert code == 2 and "inconsistent at state 000" in text


@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        (
            ["extract-policy", "{inst}/mdp.manifest", "{inst}/valuefn.manifest",
             "--state", "1", "--step", "1"],
            2,
            "no action: no action matches E(s,1) - r(s) = -1 at state (1,)\n",
            [],
        ),
        (
            ["check-consistency", "{plain}/mdp.manifest", "{inst}/valuefn.manifest"],
            1,
            "",
            ["smdp: error: consistency checking needs a bounded-action manifest (successor lines)"],
        ),
        (
            ["extract-policy", "{plain}/mdp.manifest", "{inst}/valuefn.manifest",
             "--state", "1", "--step", "1"],
            1,
            "",
            ["smdp: error: policy extraction needs a bounded-action manifest (successor lines)"],
        ),
        (
            ["eval", "{plain}/mdp.manifest", "{plain}/policy.manifest"],
            1,
            "",
            ["smdp: error: no horizon: the manifest declares none, pass --horizon"],
        ),
    ],
    ids=["no-action", "consistency-plain", "extraction-plain", "no-horizon"],
)
def test_refusals_and_the_no_action_answer(tmp_path, capsys, argv, code, out, err):
    # a satisfiable formula: the all-zero value function misses the reward of its model 1
    cnf = write_cnf(tmp_path, Cnf(1, ((1,),)))
    assert run(["gen-unsatcons", cnf, "-o", str(tmp_path / "inst")], capsys)[0] == 0
    coin_files(tmp_path / "plain", horizon=None)  # no successor lines, no horizon
    argv = [arg.format(inst=tmp_path / "inst", plain=tmp_path / "plain") for arg in argv]
    try:
        got = main(argv)
    except SystemExit as exc:  # a usage error
        got = exc.code
    printed = capsys.readouterr()
    assert got == code and printed.out == out
    assert printed.err.splitlines()[-1:] == err  # the last line, after the usage


def test_extract_policy_reads_successors_of_a_value_circuit(tmp_path, capsys):
    # every successor of 01 differs from it, so a table over 01 alone covered none
    cnf = write_cnf(tmp_path, Cnf(2, ((1, 2), (1, -2), (-1, 2), (-1, -2))))
    out = tmp_path / "inst"
    assert run(["gen-unsatcons", cnf, "-o", str(out)], capsys)[0] == 0
    files = [str(out / "mdp.manifest"), str(out / "valuefn.manifest")]
    code, text, _ = run(["check-consistency"] + files, capsys)
    assert code == 0 and text.strip() == "consistent"
    code, text, err = run(["extract-policy"] + files + ["--state", "01", "--step", "1"], capsys)
    assert code == 0 and text.strip() == "a" and err == ""


def test_value_and_extract_policy_reject_a_state_of_the_wrong_width(tmp_path, capsys):
    cnf = write_cnf(tmp_path, Cnf(2, ((1, 2),)))
    out = tmp_path / "inst"
    assert run(["gen-unsatcons", cnf, "-o", str(out)], capsys)[0] == 0
    vpath = str(out / "valuefn.manifest")
    for argv in (["value", vpath], ["extract-policy", str(out / "mdp.manifest"), vpath]):
        # `value` reported the circuit's "expected 4 input bits, got 5"
        code, text, err = run(argv + ["--state", "011", "--step", "1"], capsys)
        assert code == 1 and text == ""
        assert "state (0, 1, 1) is not a 0/1 state of width 2 (it has width 3)" in err
        assert "Traceback" not in err
        code, text, err = run(argv + ["--state", "01", "--step", "-1"], capsys)
        assert code == 1 and text == ""
        assert "step index -1 out of range" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "command, limit, message",
    [
        ("solve", "abc", "SMDP_LIMIT_STATES must be an integer, got 'abc'"),
        ("solve", "5", "reachable state count reached 6, over the limit 5"),
        ("check-consistency", "5", "states to check (2^3) reached 8, over the limit 5"),
    ],
)
def test_state_limit_errors_name_the_knob(
    tmp_path, capsys, monkeypatch, command, limit, message
):
    cnf = write_cnf(tmp_path, Cnf(3, ((1, 2, 3),)))
    out = tmp_path / "inst"
    assert run(["gen-unsatcons", cnf, "-o", str(out)], capsys)[0] == 0
    files = [str(out / "mdp.manifest")]
    if command == "check-consistency":
        files.append(str(out / "valuefn.manifest"))
    monkeypatch.setenv("SMDP_LIMIT_STATES", limit)
    code, text, err = run([command] + files, capsys)
    assert code == 1 and text == ""
    assert message in err and "SMDP_LIMIT_STATES" in err and "Traceback" not in err


def test_parser_is_built_once_and_reusable(tmp_path, capsys):
    cnf = write_cnf(tmp_path, Cnf(2, ((1, 2),)))
    out = tmp_path / "inst"
    check = ["check-consistency", str(out / "mdp.manifest"), str(out / "valuefn.manifest")]
    calls = [
        ["gen-unsatcons", cnf, "-o", str(out)],
        check,
        check + ["--emit", "records"],
        ["value", str(out / "valuefn.manifest"), "--state", "01", "--step", "1"],
        ["value", str(out / "valuefn.manifest"), "--state", "01"],  # usage error
        check + ["--horizon", "9"],
        ["no-such-command"],
        check,
    ]

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as e:
            code = ("exit", e.code)
        out = capsys.readouterr()
        return code, out.out, out.err

    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(outcome(argv))
    assert build_parser() is build_parser()
    reused = [outcome(argv) for argv in calls + calls]
    assert reused == fresh + fresh
    assert [r[0] for r in fresh] == [0, 2, 2, 0, ("exit", 1), 1, ("exit", 1), 2]


def test_canon_prints_term_counts(tmp_path, capsys):
    b = ct.CircuitBuilder(2)
    c = b.build([b.xor(b.inp(0), b.inp(1))])
    path = tmp_path / "xor.net"
    ct.write_netlist(c, path)
    code, text, _ = run(["canon", str(path), "--emit", "records"], capsys)
    assert code == 0
    records = dict(line.split("=", 1) for line in text.strip().splitlines())
    assert records["terms"] == "2"


def test_verify_suite_exit_zero(capsys):
    code, text, _ = run(["verify", "consistency", "--n", "3", "--cases", "5"], capsys)
    assert code == 0
    assert text.strip().endswith("pass")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["evalreward", "--n", "0"], "n must be at least 1, got 0"),
        (["nextaction", "--n", "0"], "n must be at least 1, got 0"),
        (["boundedpolicy", "--n", "-2"], "n must be at least 1, got -2"),
        (["evalreward", "--cases", "-1"], "cases must be at least 1, got -1"),
        (["normalization", "--cases", "0"], "cases must be at least 1, got 0"),
        (["nextaction", "--n", "3", "--cases", "-5"], "cases must be at least 1, got -5"),
        (["valuechoice", "--cases", "0"], "cases must be at least 1, got 0"),
    ],
)
def test_verify_refuses_counts_below_one(argv, message, capsys):
    code, text, err = run(["verify", *argv], capsys)
    assert (code, text) == (1, "")
    assert err == f"smdp: error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["valuechoice", "--n", "9"], "suite valuechoice does not read n, got n=9"),
        (["valuechoice", "--cases", "300"], "suite valuechoice does not read cases, got cases=300"),
        (["boundedpolicy", "--n", "1", "--cases", "16"], "suite boundedpolicy does not read n, got n=1"),
        (["boundedpolicy", "--cases", "16"], "suite boundedpolicy does not read cases, got cases=16"),
        (["normalization", "--n", "3", "--cases", "2"], "suite normalization does not read n, got n=3"),
        (["roundtrip", "--n", "3"], "suite roundtrip does not read n, got n=3"),
        (["valuechoice", "--seed", "5"], "suite valuechoice does not read seed, got seed=5"),
        (["boundedpolicy", "--seed", "0"], "suite boundedpolicy does not read seed, got seed=0"),
    ],
)
def test_verify_refuses_counts_the_suite_does_not_read(argv, message, capsys):
    code, text, err = run(["verify", *argv], capsys)
    assert (code, text) == (1, "")
    assert err == f"smdp: error: {message}\n"


def test_verify_runs_a_suite_on_the_counts_it_reads(capsys):
    code, text, _ = run(["verify", "normalization", "--cases", "2", "--emit", "records"], capsys)
    assert code == 0
    assert "total=2\n" in text


def test_run_suite_refuses_a_seed_the_suite_does_not_read():
    # valuechoice and boundedpolicy answer one fixed grid: a seed would
    # change nothing, so an explicit one is refused, not ignored
    for name in ("valuechoice", "boundedpolicy"):
        with pytest.raises(ValueError, match=f"^suite {name} does not read seed, got seed=5$"):
            run_suite(name, seed=5)
    assert run_suite("dnf", n=2, cases=3) == suite_dnf(max_n=2, cases=3, seed=0)


def test_run_suite_dispatches_by_name_and_names_the_suites_it_knows():
    assert SUITES == (
        "nextaction", "evalreward", "boundedpolicy", "consistency",
        "valuechoice", "normalization", "roundtrip", "dnf",
    )
    assert run_suite("dnf", n=2, cases=3, seed=4) == suite_dnf(max_n=2, cases=3, seed=4)
    msg = "^unknown suite 'nope'; choose one of " + ", ".join(SUITES) + "$"
    with pytest.raises(ValueError, match=msg):
        run_suite("nope")


def test_check_consistency_counts_value_cells_before_allocating(tmp_path, capsys):
    # a declared horizon of a million asks for 4 states x 1,000,001 values
    cnf = write_cnf(tmp_path, Cnf(2, ((1, 2), (-1, 2))))
    out = tmp_path / "inst"
    assert run(["gen-unsatcons", cnf, "-o", str(out)], capsys)[0] == 0
    for name in ("mdp.manifest", "valuefn.manifest"):
        path = out / name
        path.write_text(path.read_text().replace("horizon 2\n", "horizon 1000000\n"))
    net = out / "valuefn.net"
    net.write_text(net.read_text().replace("inputs 4\n", "inputs 22\n"))
    files = [str(out / "mdp.manifest"), str(out / "valuefn.manifest")]
    code, text, err = run(["check-consistency"] + files, capsys)
    assert code == 1 and text == ""
    assert "value cells (2^2·1000001) reached 4000004, over the limit 1048576" in err
    assert "SMDP_LIMIT_STATES" in err and "Traceback" not in err
