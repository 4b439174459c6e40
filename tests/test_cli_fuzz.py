"""Property-based fuzz of the command line, run in-process.

Every input must end in exit 0 (with JSON on stdout for the JSON
commands), 2, 3 or 4; any exception escaping ``qsd.cli.main`` is a
defect, and so is an exit 2, 3 or 4 whose stderr is not a one-line
``error:`` message of at most 1,000 characters, a usage error included.
State counts and sweep steps are drawn either small or above their
limits, never in between, so that no example builds a large matrix or
grid.
"""

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import main_cli
from qsd.cli import MAX_SWEEP_STEPS

# absurd magnitudes overflow in numpy on their way to a typed error
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

FUZZ = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf, 1e300, -1e300])
NUMBER = st.one_of(
    st.floats(min_value=-2.0, max_value=25.0), st.integers(-3, 8), NON_FINITE
)
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.lists(st.integers(0, 2), max_size=2),
    st.dictionaries(st.sampled_from(["re", "im", "x"]), NUMBER, max_size=2),
)
FIELD = st.one_of(NUMBER, JUNK)
SMALL_N = st.integers(-2, 7)
HUGE_N = st.sampled_from([4097, 100_000, 10**9, 2**63, 10**30])
COUNT = st.one_of(SMALL_N, HUGE_N, NON_FINITE, st.sampled_from([2.5, "3", -0.0]), JUNK)
COMPLEX = st.one_of(NUMBER, st.fixed_dictionaries({"re": NUMBER, "im": NUMBER}), JUNK)


@st.composite
def gram_objects(draw):
    n = draw(st.integers(1, 4))
    valid = draw(st.booleans())
    if valid:
        # identity, equal real overlaps or a circulant: inputs that pass
        # validation and reach the closed forms and the search
        s = draw(st.floats(-0.3, 0.9))
        phase = draw(st.sampled_from([0.0, 0.5, 2.0]))
        row = [1.0] + [s * complex(math.cos(phase * k), math.sin(phase * k)) for k in range(1, n)]
        entry = lambda j, l: row[(l - j) % n] if l >= j else row[(j - l) % n].conjugate()
        matrix = [[{"re": entry(j, l).real, "im": entry(j, l).imag} for l in range(n)] for j in range(n)]
    else:
        size = draw(st.integers(0, 4))
        matrix = draw(st.lists(st.lists(COMPLEX, min_size=size, max_size=size), max_size=4))
    priors = draw(
        st.one_of(
            st.just([1.0 / n] * n),
            st.lists(FIELD, min_size=max(n - 1, 0), max_size=n + 1),
            JUNK,
        )
    )
    return {"kind": "gram", "matrix": matrix, "priors": priors}


ENSEMBLE = st.one_of(
    st.fixed_dictionaries({"kind": st.just("binary"), "overlap": COMPLEX, "eta1": FIELD}),
    st.fixed_dictionaries({"kind": st.just("symmetric"), "n": COUNT, "s": FIELD}),
    st.fixed_dictionaries({"kind": st.just("psk"), "n": COUNT, "alpha_sq": FIELD}),
    gram_objects(),
    st.fixed_dictionaries({"kind": JUNK}),
)


def run(argv):
    """Exit code of ``qsd argv``; other exceptions propagate."""
    code, out, err = main_cli(*argv)
    assert code in (0, 2, 3, 4), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err)
        assert len(lines[0]) <= 1000, (argv[:2], len(lines[0]))
    if code == 0 and argv[0] != "sweep":
        json.loads(out)
    return code


@FUZZ
@given(
    ensemble=ENSEMBLE,
    command=st.sampled_from(["simulate", "dilation", "optimize"]),
    shots=st.sampled_from(["1", "1000", "1000000", "0", "9223372036854775808"]),
)
def test_ensemble_inputs(ensemble, command, shots):
    argv = [command, "--ensemble", json.dumps(ensemble)]
    if command == "simulate":
        argv += ["--shots", shots]
    run(argv)


VALID_SMALL = st.sampled_from(
    [
        {"kind": "symmetric", "n": 2, "s": 0.0},
        {"kind": "binary", "overlap": {"re": 0.3, "im": 0.4}, "eta1": 0.3},
        {"kind": "symmetric", "n": 3, "s": 0.5},
        {"kind": "psk", "n": 3, "alpha_sq": 0.5},
    ]
)


@pytest.fixture(scope="module")
def coupling_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("couplings")


@FUZZ
@given(
    ensemble=VALID_SMALL,
    rows=st.lists(st.lists(COMPLEX, min_size=1, max_size=3), min_size=1, max_size=3),
    identity=st.booleans(),
    spoiler=COMPLEX,
    wrap=st.booleans(),
    command=st.sampled_from(["simulate", "dilation"]),
    shots=st.sampled_from(["1000", "1000000"]),
)
def test_coupling_files(coupling_dir, ensemble, rows, identity, spoiler, wrap, command, shots):
    if identity:
        # the identity with one entry replaced: right shape, bad value
        n = 2 if ensemble["kind"] == "binary" else ensemble["n"]
        rows = [[float(j == k) for k in range(n)] for j in range(n)]
        rows[0][0] = spoiler
    path = coupling_dir / "coupling.json"
    path.write_text(json.dumps({"c": rows} if wrap else rows))
    argv = [command, "--ensemble", json.dumps(ensemble), "--coupling", str(path)]
    run(argv + (["--shots", shots] if command == "simulate" else []))


N_TOKEN = st.one_of(
    SMALL_N.map(str),
    HUGE_N.map(str),
    st.sampled_from(["x", "", " 4", "3.5", "1e3", "nan", "-", "0x10"]),
)


@FUZZ
@given(
    family=st.sampled_from(["symmetric", "psk", "binary"]),
    tokens=st.lists(N_TOKEN, min_size=1, max_size=3),
    axis=st.sampled_from(["s", "alpha_sq", "eta1"]),
    bounds=st.tuples(NUMBER, NUMBER).filter(lambda b: all(isinstance(x, (int, float)) for x in b)),
    outputs=st.sampled_from(["closed_form", "srm_oracle", "optimizer", "closed_form,srm_oracle,optimizer"]),
    psk_n=st.one_of(SMALL_N, HUGE_N).map(str),
)
def test_sweep_and_size_arguments(family, tokens, axis, bounds, outputs, psk_n):
    run(
        [
            "sweep", "--family", family, f"--n={','.join(tokens)}", "--axis", axis,
            f"--min={bounds[0]!r}", f"--max={bounds[1]!r}", "--steps", "2", "--outputs", outputs,
        ]
    )
    run(["psk", "--n", psk_n, "--alpha-sq", "0.5"])
    run(["symmetric", "--n", psk_n, "--s", "0.25", "--emit-coupling"])


# identical states, certified at once: qsd optimize has no --max-iters, so
# each drawn token must end as a one-line unrecognized-argument error
IDENTITY = json.dumps({"kind": "symmetric", "n": 2, "s": 0.0})
SETTING_TOKEN = st.one_of(
    st.sampled_from(
        ["0", "1", "-1", "2.5", "3.0", "True", "nan", "inf", "-inf", "1e-9", "0.5", "1e3"]
        + ["", "x", " 3", "0x10", "1_000", "9" * 30]
    ),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(max_size=4),
)


@FUZZ
@given(max_iters=SETTING_TOKEN)
def test_solver_flag_tokens(max_iters):
    run(["optimize", "--ensemble", IDENTITY, f"--max-iters={max_iters}"])


COUNT_TOKEN = st.sampled_from(
    ["1", "2", "3", "0", "-4", "", "x", "2.5", "1e3", "nan", "0x10", " 3"]
    + [str(MAX_SWEEP_STEPS + 1), "1000000000000", "9" * 30]
)
SHOTS_TOKEN = COUNT_TOKEN | st.sampled_from(["1000", "1000000", "9223372036854775807", "9223372036854775808"])


@FUZZ
@given(steps=COUNT_TOKEN, shots=SHOTS_TOKEN, family=st.sampled_from(["symmetric", "binary"]))
def test_steps_and_shots_tokens(steps, shots, family):
    run(
        [
            "sweep", "--family", family, "--n", "3", "--axis", "s",
            "--min", "0.1", "--max", "0.5", f"--steps={steps}",
        ]
    )
    run(["simulate", "--ensemble", IDENTITY, f"--shots={shots}"])
