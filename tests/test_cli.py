import hashlib
import io
import json
import tracemalloc
from contextlib import redirect_stdout
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from autsplit.cli import main, parse_series
from autsplit.gftower import PRIME_TEST_BOUND, build_tower, subfield_generator


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def schema():
    ref = resources.files("autsplit") / "schemas" / "report.schema.json"
    return json.loads(ref.read_text())


def validate_json_output(argv):
    code, out = run_cli(["--output", "json"] + argv)
    doc = json.loads(out)
    jsonschema.validate(doc, schema())
    assert doc["exit_code"] == code
    return code, doc


def test_brauer_inv():
    code, out = run_cli(["brauer", "inv", "--d", "3", "--r", "1"])
    assert code == 0 and "1/3" in out


def test_brauer_wedderburn_and_basechange():
    code, out = run_cli(["brauer", "wedderburn", "--d", "4", "--r", "2"])
    assert code == 0 and "A(2,1)" in out
    code, out = run_cli(["brauer", "basechange", "--d", "3", "--r", "1",
                         "--m", "3"])
    assert code == 0 and "0/1" in out


def test_split_check_exit_codes():
    code, out = run_cli(["split-check", "--charp", "--n", "1", "--d", "3",
                         "--p", "2", "--i", "2"])
    assert code == 1 and "NON-SPLIT" in out and "3" in out
    code, out = run_cli(["split-check", "--charp", "--n", "3", "--d", "3",
                         "--p", "2", "--i", "2"])
    assert code == 0 and "SPLIT" in out
    code, out = run_cli(["split-check", "--subfield", "--n", "2", "--d", "2",
                         "--m", "2"])
    assert code == 0

    # 2^127 - 1 is prime; the witness search never factors i(p^i - 1)
    code, doc = validate_json_output(["split-check", "--charp", "--n", "1",
                                      "--d", "2", "--p", "2", "--i", "127"])
    assert code == 1 and doc["result"] == {"verdict": "NON-SPLIT",
                                           "witness_subfield_degree": 2}


def test_split_check_large_prime_characteristic(capsys):
    # 2^61 - 1 needs no field table, and its primality test is immediate
    code, doc = validate_json_output(["split-check", "--charp", "--n", "1",
                                      "--d", "3", "--p", str(2 ** 61 - 1),
                                      "--i", "1"])
    assert code == 1 and doc["result"]["verdict"] == "NON-SPLIT"
    # above the bound of the primality test, --p is refused, naming it
    code, err = run_cli_usage(["split-check", "--charp", "--n", "1", "--d", "3",
                               "--p", str(PRIME_TEST_BOUND), "--i", "1"], capsys)
    assert code == 2 and str(PRIME_TEST_BOUND) in err and "Traceback" not in err


def test_descent_form_cli():
    code, out = run_cli(["descent-form", "--n", "1", "--d", "3", "--r", "1",
                         "--m", "2"])
    assert code == 0 and "SL_1(A(3,2))" in out
    code, out = run_cli(["descent-form", "--n", "1", "--d", "2", "--r", "1",
                         "--m", "2"])
    assert code == 1 and "NO-FORM" in out


def test_nrd_cli():
    code, out = run_cli(["nrd", "--p", "3", "--i", "1", "--d", "2", "--r",
                         "1", "--element", "1;0"])
    assert code == 0 and "1" in out
    # Nrd(u) = -T: components 0;1
    code, out = run_cli(["nrd", "--p", "3", "--i", "1", "--d", "2", "--r",
                         "1", "--element", "0;1"])
    assert code == 0 and "T" in out


def test_section_synth_refusal_with_witness():
    code, out = run_cli(["section", "synth", "--p", "2", "--i", "2", "--d",
                         "3", "--r", "1", "--n", "1"])
    assert code == 1
    assert "NON-SPLIT" in out and "3" in out
    code, out = run_cli(["section", "synth", "--p", "2", "--i", "1", "--d",
                         "2", "--r", "1", "--n", "1"])
    assert code == 1 and "2" in out


def test_section_synth_small_run():
    code, out = run_cli(["section", "synth", "--p", "2", "--i", "1", "--d",
                         "3", "--r", "1", "--n", "1", "--samples", "3",
                         "--prec", "16"])
    assert code == 0
    assert "VERIFIED" in out


@pytest.mark.parametrize("argv", ["--p 2 --i 1 --d 3 --r 2 --n 1 --prec 2",
                                  "--p 3 --i 1 --d 4 --r 3 --n 2 --prec 3"])
def test_section_synth_with_r_at_least_prec(argv):
    # u is singular mod T^prec when r >= prec; section_Cbprime takes its
    # powers exactly, so these split inputs no longer exit 2
    code, out = run_cli(["section", "synth"] + argv.split()
                        + ["--samples", "6", "--seed", "1"])
    assert code == 0 and "verdict: VERIFIED" in out


def test_hanke_cli():
    code, out = run_cli(["hanke", "--p", "2", "--i", "1", "--r", "1",
                         "--alpha", "T+T^2", "--prec", "16"])
    assert code == 0 and "branch" in out


def test_hanke_refuses_a_slot_at_or_beyond_precision(capsys):
    # T^r is zero mod T^prec for r >= prec; the message names both flags
    for r in ("2", "3"):
        code, err = run_cli_usage(["hanke", "--p", "2", "--i", "1", "--r", r,
                                   "--alpha", "T+T^2", "--prec", "2"], capsys)
        assert code == 2 and "--r" in err and "--prec" in err


def test_nrd_with_a_term_far_beyond_precision_stays_small():
    # T^(10^7) is O(T^8): the parsed series must not allocate a window
    # reaching it (a list of 10^7 slots is 80 MB)
    argv = ["nrd", "--p", "2", "--i", "1", "--d", "3", "--r", "1",
            "--prec", "8", "--element"]
    tracemalloc.start()
    try:
        code, out = run_cli(argv + ["1+T^10000000;0;0"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == run_cli(argv + ["1;0;0"])
    assert peak < 8_000_000


def test_extension_split_cli(tmp_path):
    doc = {"order": 4, "table": [[(x + y) % 4 for y in range(4)]
                                 for x in range(4)],
           "normal_subset": [0, 2]}
    path = tmp_path / "c4.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(["extension", "split", "--file", str(path)])
    assert code == 1 and "False" in out


def test_ses_verdict_cli(tmp_path):
    code, out = run_cli(["ses-verdict", "--g", "1", "--family", "A",
                         "--rank", "2"])
    assert code == 0
    doc = {"order": 4, "table": [[(x + y) % 4 for y in range(4)]
                                 for x in range(4)],
           "normal_subset": [0, 2]}
    path = tmp_path / "c4.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(["ses-verdict", "--g", "2", "--family", "A",
                         "--rank", "3", "--tower-file", str(path)])
    assert code == 1


C2 = [[0, 1], [1, 0]]


@pytest.mark.parametrize("doc", [
    {},
    {"order": 2, "table": C2},
    [{"order": 2, "table": C2, "normal_subset": [0]}],
    {"order": 2, "table": C2, "normal_subset": [0, 5]},
    {"order": 0, "table": [], "normal_subset": []},
], ids=["empty object", "no normal_subset", "top-level list",
        "normal_subset out of range", "order 0"])
def test_malformed_group_table_is_a_usage_error(doc, tmp_path, monkeypatch,
                                                capsys):
    path = tmp_path / "group.json"
    path.write_text(json.dumps(doc))
    for argv in (["extension", "split"],
                 ["extension", "split", "--file", str(path)],
                 ["ses-verdict", "--g", "2", "--family", "A", "--rank", "3",
                  "--tower-file", str(path)]):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        code, err = run_cli_usage(argv, capsys)
        assert code == 2
        assert len([line for line in err.splitlines()
                    if "error:" in line]) == 1
        assert "Traceback" not in err


def test_usage_errors_exit_2():
    code, _ = run_cli(["nrd", "--p", "4", "--i", "1", "--d", "2", "--r", "1",
                       "--element", "1;0"])
    assert code == 2  # 4 is not prime
    code, _ = run_cli(["nrd", "--p", "2", "--i", "1", "--d", "2", "--r", "1",
                       "--element", "1"])
    assert code == 2  # wrong number of components


def test_json_outputs_validate_against_schema():
    validate_json_output(["brauer", "inv", "--d", "3", "--r", "1"])
    validate_json_output(["split-check", "--charp", "--n", "1", "--d", "3",
                          "--p", "2", "--i", "2"])
    validate_json_output(["descent-form", "--n", "1", "--d", "3", "--r", "1",
                          "--m", "2"])
    validate_json_output(["hanke", "--p", "2", "--i", "1", "--r", "1",
                          "--alpha", "T+T^2", "--prec", "12"])
    code, doc = validate_json_output(["section", "synth", "--p", "2", "--i",
                                      "1", "--d", "3", "--r", "1", "--n", "1",
                                      "--samples", "2", "--prec", "12"])
    assert code == 0 and doc["result"]["verdict"] == "VERIFIED"


def test_byte_identical_reports():
    argv = ["--output", "json", "section", "synth", "--p", "2", "--i", "1",
            "--d", "3", "--r", "1", "--n", "1", "--samples", "3",
            "--prec", "16", "--seed", "7"]
    _, out1 = run_cli(argv)
    _, out2 = run_cli(argv)
    assert out1 == out2
    argv = ["brauer", "inv", "--d", "5", "--r", "3"]
    assert run_cli(argv) == run_cli(argv)


def test_parse_series_round_trip():
    tower = build_tower(2, 2, 3, 1)
    s = parse_series("1+g*T+g^2*T^3+T^-1", tower, 2, 12)
    z = subfield_generator(tower, 2)
    assert s.coeff(-1) == tower.one()
    assert s.coeff(0) == tower.one()
    assert s.coeff(1) == z
    assert s.coeff(3) == z ** 2
    assert s.val == -1 and s.prec == 12
    t3 = build_tower(3, 1, 2, 1)
    s = parse_series("2*T", t3, 1, 8)
    assert s.coeff(1) == t3.from_int(2)


# Reports pinned byte for byte.  Each digest was recorded from an earlier
# implementation of the series linear algebra (separate det, solve and 3x3
# adjugate code), so a change of elimination order or of precision
# bookkeeping in nrd, in the hanke descent check or in the section
# verifier shows here.
JSON, TEXT = ["--output", "json"], ["--output", "text"]
C4_C2 = str(Path(__file__).with_name("c4_c2.json"))   # C4 over its C2
GOLDEN_REPORTS = [
    ("67bde55cee266f40ab898bec00f4bf32c0d99eaff3d269bb20e7aa277439bec0", 0,
     JSON + ["nrd", "--p", "2", "--i", "1", "--d", "3", "--r", "1", "--prec",
             "12", "--element", "1+T;T;1"]),
    ("6e21f21d97b53e5adf19281a3c4583b57249467daa06f4e139f67bc7d4a6115a", 0,
     JSON + ["nrd", "--p", "3", "--i", "1", "--d", "2", "--r", "1", "--prec",
             "10", "--element", "2+T^2;1+T"]),
    ("32092c62e4f0b8e0891bbc667371b200515d54e741379055115aae327069a44b", 0,
     JSON + ["nrd", "--p", "2", "--i", "2", "--d", "3", "--r", "2", "--prec",
             "9", "--element", "g+T;T^-1;g^2*T^3"]),
    ("fd88b6d6c2d0974e9a2d297dab6e9256aafeedc558e24596cc2e92fdfed3293e", 0,
     JSON + ["hanke", "--p", "2", "--i", "1", "--r", "1", "--alpha", "T+T^2",
             "--prec", "12"]),
    ("33e7927eebd194a77667f4e80609be1f29894e1acd8c7fc6a27ccb1a43fddcde", 0,
     JSON + ["hanke", "--p", "3", "--i", "1", "--r", "2", "--alpha", "2*T+T^3",
             "--prec", "10"]),
    ("b1957fde9c3f47fd27ee24d06704d6ed1f2ac366ce09780e564e0e4a2e86d564", 0,
     JSON + ["hanke", "--p", "2", "--i", "2", "--r", "1", "--alpha", "g*T+T^2",
             "--frob", "1", "--prec", "8"]),
    # recorded while hanke_test_deg3 still fell back to the outer equation
    # alpha(a)*a = N(lambda): 3 | r, where that equation is solvable too,
    # r <= 0, and i = 3 with --frob 2
    ("bffa59ce127cd35d049b4e7443379cb3f0fcf384f9edd4e63aac853ff9b29154", 0,
     JSON + ["hanke", "--p", "2", "--i", "1", "--r", "3", "--alpha",
             "T+T^2+T^5", "--prec", "12"]),
    ("1d1ed0858c71d997687360a40e467de4794f969598cc86902e26df614c03b59a", 0,
     JSON + ["hanke", "--p", "5", "--i", "1", "--r", "6", "--alpha", "2*T+T^2",
             "--prec", "14"]),
    ("8a5e56a606f28af43a422a55566d293386361bcb11ebb333270e04a38fd51a7e", 0,
     JSON + ["hanke", "--p", "3", "--i", "1", "--r", "0", "--alpha", "2*T+T^2",
             "--prec", "8"]),
    ("db270760e95bbb7727c0b1d482a810c7c782b0f032adc077bab132ff3a9057bb", 0,
     JSON + ["hanke", "--p", "7", "--i", "1", "--r", "-2", "--alpha",
             "3*T+T^3", "--prec", "10"]),
    ("2b24f6f9b4c17740aef78ae4319b85784b6f21623cbf64ccb070e4f7270d5496", 0,
     JSON + ["hanke", "--p", "2", "--i", "3", "--r", "2", "--alpha", "g*T+T^2",
             "--frob", "2", "--prec", "8"]),
    ("9d478a4eaddf8790ac8692ed9b35e4ab69c75666c39e79d5b7835916230a0f84", 0,
     JSON + ["section", "synth", "--p", "3", "--i", "1", "--d", "2", "--r",
             "1", "--n", "2", "--samples", "3", "--prec", "12", "--seed",
             "5"]),
    # b = 3: the C_b section's inner part Y is block diagonal; recorded
    # from the dense algebra-matrix products
    ("42e5132700eafd8ed988062e65af91cb1dd6761eaac16fd36a39064bf029577d", 0,
     JSON + ["section", "synth", "--p", "2", "--i", "2", "--d", "3", "--r",
             "1", "--n", "3", "--prec", "16", "--samples", "4", "--seed",
             "3"]),
    ("5aa085e8c8b6345bf08f8fdf9ab3deb7628b53200a687346024200aeb8ed1fc0", 0,
     JSON + ["section", "synth", "--p", "2", "--i", "2", "--d", "3", "--r",
             "2", "--n", "6", "--prec", "12", "--samples", "2", "--seed",
             "3"]),
    # b' = 3: the C_b' section's inner part W is block cyclic
    ("0feaedcea2d8e7c35494ce146e3c2f7b1611c23a87305addb649150720303366", 0,
     JSON + ["section", "synth", "--p", "2", "--i", "3", "--d", "3", "--r",
             "1", "--n", "3", "--prec", "12", "--samples", "4", "--seed",
             "3"]),
    # odd p >= 5 with r >= p: ratio ** r and the Hensel exponent both reach
    # powers of at least p
    ("d576a86ebe7e53bd6f5f670b43c99799d2b655968137b4566e0784b777093ba3", 0,
     JSON + ["section", "synth", "--p", "7", "--i", "1", "--d", "2", "--r",
             "9", "--n", "2", "--prec", "16", "--samples", "3", "--seed",
             "2"]),
    ("13957336e52fffcf6cc818eeef8cfe134b27a6f98dc2ab99507e4deddf6d3ec4", 0,
     JSON + ["section", "synth", "--p", "5", "--i", "1", "--d", "3", "--r",
             "7", "--n", "1", "--prec", "16", "--samples", "3", "--seed",
             "2"]),
    # r < prec inputs that failed glue_homomorphism while an algebra
    # product skipped a zero known only to T^k, k < prec, like an exact
    # zero; VERIFIED since zeros keep their precision.  --r comes before
    # --d so that golden_id names each by its r
    ("ac9cc718020de83ffa174c14777c58ac372ca6b73f09af8aa4541c84b42539e1", 0,
     JSON + ["section", "synth", "--p", "2", "--i", "3", "--r", "2", "--d",
             "3", "--n", "3", "--prec", "3", "--samples", "6", "--seed",
             "1"]),
    ("8d5858f5a99e0dadf032771f7a4d9dc5b756ccbb7c2e31ad70bff7b0827d2d1d", 0,
     JSON + ["section", "synth", "--p", "2", "--i", "3", "--r", "1", "--d",
             "3", "--n", "3", "--prec", "2", "--samples", "6", "--seed",
             "1"]),
    # a CHECK-FAILED synth report, so that a golden compares semilinear
    # automorphisms on a failing verdict.  This verdict is the open
    # r >= prec case (u^d = T^r is lost mod T^prec); it is pinned only to
    # show that a change to the comparison moves no report
    ("0dab171894d79e41819073e475cd294d96bf3ffd6b50026e5256363a29152416", 1,
     JSON + ["section", "synth", "--p", "3", "--i", "1", "--r", "3", "--d",
             "2", "--n", "2", "--prec", "2", "--samples", "6", "--seed",
             "1"]),                         # fails order_Cbprime
    # VERIFIED on the precision edge: a change to the precision some
    # comparison reaches (such as composing the glued section in another
    # order) turns these to CHECK-FAILED on glue_homomorphism.  --n and
    # --prec come first so that golden_id names each by them
    ("7865ce0594606058d64cbbd6a27e14b219a862af05a61f0ec3b183d45428d9ac", 0,
     JSON + ["section", "synth", "--n", "3", "--p", "2", "--prec", "3",
             "--i", "3", "--d", "3", "--r", "1", "--samples", "6", "--seed",
             "1"]),
    ("087e67c95f155e806c8ef697b9fbbf4603df6c7e2565d13baada5775ee3d8b8b", 0,
     JSON + ["section", "synth", "--n", "6", "--p", "2", "--prec", "3",
             "--i", "3", "--d", "3", "--r", "1", "--samples", "6", "--seed",
             "1"]),
    ("e6809f4dad5a4637adc6d038b7e0340172b4ab154f296a2f3407c293385faf45", 0,
     JSON + ["section", "synth", "--n", "3", "--p", "2", "--prec", "5",
             "--i", "3", "--d", "3", "--r", "2", "--samples", "6", "--seed",
             "1"]),
    ("c623c8e0a61fc44322c3c1d0573dc7ecf2dc30d94548e8557ec06f03be29768c", 0,
     JSON + ["section", "synth", "--n", "6", "--p", "2", "--prec", "5",
             "--i", "3", "--d", "3", "--r", "2", "--samples", "6", "--seed",
             "1"]),
    # the other subcommands, the verdicts that exit 1 and one text report
    ("4184e90e4c68c1e095de62596ac1bdc127c777d6b871720e30347a1c254c83df", 0,
     JSON + ["brauer", "basechange", "--d", "4", "--r", "1", "--m", "6"]),
    ("11ddadc07b9a86f9419ac673fb7d07d0d6c983f80c251ab9511358e82c2fe6d8", 1,
     JSON + ["split-check", "--charp", "--n", "1", "--d", "3", "--p", "2",
             "--i", "2"]),
    ("bf21ff79be8d0f4ace320a6438cc0f9351bebe9cbd4275a8ca3a51a60acf56a1", 1,
     JSON + ["split-check", "--charp", "--n", "2", "--d", "6", "--p", "5",
             "--i", "2"]),
    ("d89a9cc154a3bcdd8dc34760355764d77e91d47308faf2cfa33b09f21e6f68b1", 0,
     JSON + ["descent-form", "--n", "2", "--d", "3", "--r", "1", "--m", "2"]),
    ("8731c37059e6f39d7f1133bee359f45a2f3e79ed4991d633531f0435436e894e", 1,
     JSON + ["descent-form", "--n", "2", "--d", "3", "--r", "1", "--m", "6"]),
    ("394c77c54bdb3c1bf2194d35536dc50362e7ece447c7f61b99aa6740a8052cf1", 0,
     JSON + ["ses-verdict", "--g", "6", "--family", "D", "--rank", "4"]),
    ("0a81da4788ae0a62f46908aed56ee2a3d2ffe48925fbeab8a0b509d10fc58464", 1,
     JSON + ["extension", "split", "--file", C4_C2]),
    ("401b25f89e40c8a290751af5934ddcd065e59ef883d4e1b72b265f6265db5059", 0,
     TEXT + ["section", "synth", "--p", "3", "--i", "1", "--d", "2", "--r",
             "1", "--n", "2", "--prec", "10", "--samples", "2", "--seed",
             "4"]),
]


def golden_id(argv):
    words = [Path(w).name if w == C4_C2 else w for w in argv[2:]]
    return (" ".join(words[:1] + words[2:4] + words[6:8])
            + ("" if argv[:2] == JSON else " (text)"))


@pytest.mark.parametrize("digest, code, argv", GOLDEN_REPORTS,
                         ids=[golden_id(argv) for _, _, argv in GOLDEN_REPORTS])
def test_golden_reports(digest, code, argv):
    got, out = run_cli(argv)
    assert got == code
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_synth_deep_command_reads_its_tables_on_demand(monkeypatch):
    # SL_1(A(3,1)) over F_{2^7}((T)) at prec 64 on a fresh F_{2^21} tower
    # reads a few hundred entries, each made on demand, and builds no full
    # table.  A benchmark round after the first finds them made, so this
    # bound on the products behind them is what guards their cost.
    from functools import lru_cache

    from autsplit import sections
    from autsplit.gftower import FieldTower

    products = []
    factory = FieldTower._char2_product

    def counted(self):
        mul = factory(self)
        return lambda a, b: products.append(1) or mul(a, b)

    def no_build(self):
        raise AssertionError("full tables built")
    monkeypatch.setattr(FieldTower, "_char2_product", counted)
    monkeypatch.setattr(FieldTower, "_build_tables", no_build)
    monkeypatch.setattr(sections, "build_tower",
                        lru_cache(maxsize=None)(FieldTower))
    code, out = run_cli(JSON + ["section", "synth", "--p", "2", "--i", "7",
                                "--d", "3", "--r", "1", "--n", "1", "--prec",
                                "64", "--samples", "2", "--seed", "7"])
    assert code == 0 and json.loads(out)["result"]["verdict"] == "VERIFIED"
    assert len(products) <= 8615


def test_synth_wide_command_work_is_bounded(monkeypatch):
    # a synth-wide-shaped command at low precision: the comparisons answer
    # zeta*Id and T*Id by alpha and multiply by 1 without a series
    # product.  Round times spread by about a tenth on a 2-vCPU VM and
    # would not show a small loss of either; these counts do
    from autsplit.cyclic import AlgebraElement, SemilinearAuto
    from autsplit.series import LaurentSeries

    calls = {}

    def counted(cls, name):
        method = getattr(cls, name)

        def wrapper(*args, **kwargs):
            calls[key] = calls.get(key, 0) + 1
            return method(*args, **kwargs)
        key = f"{cls.__name__}.{name}"
        monkeypatch.setattr(cls, name, wrapper)
    counted(SemilinearAuto, "apply")
    counted(AlgebraElement, "__mul__")
    counted(LaurentSeries, "__mul__")
    code, out = run_cli(JSON + ["section", "synth", "--p", "2", "--i", "2",
                                "--d", "3", "--r", "2", "--n", "6", "--prec",
                                "12", "--samples", "2", "--seed", "3"])
    assert code == 0 and json.loads(out)["result"]["verdict"] == "VERIFIED"
    # with every generator through apply and a series product for each
    # factor 1, these read 500, 6,930 and 7,441
    bounds = {"SemilinearAuto.apply": 460, "AlgebraElement.__mul__": 5490,
              "LaurentSeries.__mul__": 3763}
    assert all(calls[key] <= bound for key, bound in bounds.items()), calls


def test_a_large_i_is_answered_without_forming_p_to_the_i(capsys):
    # split-check reads p^i mod nd; section synth refuses p^i above the
    # table limit before splitting p^i - 1, and every table refuses p^M
    # before forming it.  3^(10^9 + 7) would take minutes to form
    big = str(10 ** 9 + 7)
    code, out = run_cli(["split-check", "--charp", "--n", "2", "--d", "5",
                         "--p", "3", "--i", big])
    assert code == 0 and "SPLIT" in out
    for argv in (["section", "synth", "--p", "3", "--i", big, "--d", "5",
                  "--r", "1", "--n", "2"],
                 ["nrd", "--p", "3", "--i", big, "--d", "1", "--r", "0",
                  "--element", "1"],
                 ["hanke", "--p", "3", "--i", big, "--r", "1", "--alpha",
                  "T"]):
        code, err = run_cli_usage(argv, capsys)
        assert code == 2 and "exceeds the table limit" in err


def run_cli_usage(argv, capsys):
    """Exit code and stderr of a command that should be refused."""
    try:
        with redirect_stdout(io.StringIO()):
            code = main(argv)
    except SystemExit as exc:      # argparse's own usage errors
        code = exc.code
    return code, capsys.readouterr().err


SYNTH = ["section", "synth", "--p", "2", "--i", "1", "--d", "3", "--r", "1"]


@pytest.mark.parametrize("argv", [
    ["split-check", "--charp", "--n", "1", "--d", "3"],
    ["split-check", "--charp", "--n", "1", "--d", "3", "--p", "2"],
    ["split-check", "--subfield", "--n", "1", "--d", "3"],
    ["nrd", "--p", "2", "--i", "1", "--d", "3", "--r", "1", "--prec", "0",
     "--element", "1+T;T;1"],
    ["nrd", "--p", "2", "--i", "1", "--d", "3", "--r", "1", "--prec", "-5",
     "--element", "1+T;T;1"],
    ["hanke", "--p", "2", "--i", "1", "--alpha", "T+T^2", "--prec", "0"],
    SYNTH + ["--n", "1", "--prec", "0"],
    SYNTH + ["--n", "1", "--samples", "-3"],
    SYNTH + ["--n", "0"],
    ["section", "synth", "--p", "2", "--i", "1", "--d", "0", "--r", "1",
     "--n", "1"],
    ["descent-form", "--n", "1", "--d", "3", "--r", "1", "--m", "0"],
], ids=lambda argv: " ".join(argv))
def test_bad_arguments_are_usage_errors(argv, capsys):
    code, err = run_cli_usage(argv, capsys)
    assert code == 2
    assert len([line for line in err.splitlines() if "error:" in line]) == 1
    assert "Traceback" not in err


def test_one_parser_serves_every_command(capsys):
    # the parser is built once per process; commands run after it, and
    # after argparse's own usage errors, must report as they do when first
    from autsplit.cli import build_parser
    commands = [
        ["--output", "json", "brauer", "basechange", "--d", "4", "--r", "3",
         "--m", "2"],
        ["hanke", "--p", "2", "--i", "1", "--r", "1", "--alpha", "T+T^2",
         "--prec", "12"],
        ["--output", "json"] + SYNTH + ["--n", "1", "--samples", "2",
                                        "--prec", "8", "--seed", "3"],
        ["nrd", "--p", "3", "--i", "1", "--d", "2", "--r", "1", "--prec", "8",
         "--element", "1+T;T^-1"],
    ]
    first = [run_cli(argv) for argv in commands]
    assert all(code in (0, 1) and out for code, out in first)
    capsys.readouterr()
    assert build_parser() is build_parser()
    for _ in range(2):
        for argv, report in zip(commands, first):
            assert run_cli_usage(SYNTH + ["--n", "0"], capsys)[0] == 2
            assert run_cli_usage(["hanke", "--p", "2"], capsys)[0] == 2
            assert run_cli(argv) == report
        assert run_cli_usage(["nrd", "--p", "4", "--i", "1", "--d", "2",
                              "--r", "1", "--element", "1;0"], capsys)[0] == 2
    assert [run_cli(argv) for argv in commands] == first


def test_zero_samples_are_reported_as_vacuous():
    code, doc = validate_json_output(SYNTH + ["--n", "1", "--samples", "0",
                                              "--prec", "8"])
    details = {c["name"]: c["detail"] for c in doc["result"]["checks"]}
    assert details["glue_homomorphism"] == "vacuous (no samples)"
    assert details["glue_section_property"] == "vacuous (no samples)"


@pytest.mark.parametrize("argv", [
    ["split-check", "--charp", "--p", "4", "--i", "1", "--n", "1", "--d", "3"],
    ["section", "synth", "--p", "4", "--i", "1", "--d", "3", "--r", "1",
     "--n", "1"],
    SYNTH + ["--n", "1", "--prec", "1"],
    ["hanke", "--p", "2", "--i", "1", "--alpha", "T+T^2", "--prec", "1"],
    ["hanke", "--p", "5", "--i", "1", "--r", "2", "--alpha", "g^1*T",
     "--frob", "2", "--prec", "2"],
    ["hanke", "--p", "4", "--i", "1", "--r", "1", "--alpha", "T"],
    ["nrd", "--p", "4", "--i", "1", "--d", "2", "--r", "1", "--element",
     "1;T"],
    ["nrd", "--p", "2", "--i", "1", "--d", "3", "--r", "1", "--element",
     "1+T;T"],
], ids=lambda argv: " ".join(argv))
def test_refused_before_any_arithmetic(argv, capsys, monkeypatch):
    # a characteristic that is not prime, and a precision below 2, at
    # which T is not representable, are usage errors found before any
    # splitting criterion or field table is computed
    from autsplit import brauer, cli, sections

    def untouchable(*args):
        raise AssertionError("arithmetic ran on a refused command")

    for module, name in ((cli, "build_tower"), (sections, "build_tower"),
                         (brauer, "splits_globally_charp"),
                         (brauer, "non_split_witness")):
        monkeypatch.setattr(module, name, untouchable)
    code, err = run_cli_usage(argv, capsys)
    assert code == 2
    assert len([line for line in err.splitlines() if "error:" in line]) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [["section", "synth"], ["hanke"]])
def test_help_states_the_minimum_precision(command, capsys):
    with pytest.raises(SystemExit):
        main(command + ["--help"])
    assert "at least 2" in capsys.readouterr().out
