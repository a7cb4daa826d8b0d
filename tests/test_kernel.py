"""The exact fixed-point kernel behind every binomial route."""

from hypothesis import given, settings, strategies as st
from mpmath import mpf, workdps

from zetadiff import differences, mpcore
from zetadiff.mpcore import RationalShift
from zetadiff.precision import PrecisionBudget, required_working_digits, smallness_digits

# (kind, shift): A and a at a shift with k > 1, so the inputs are Hurwitz values
KINDS = [("b", None), ("delta", None), ("A", (2, 5)), ("a", (1, 3)), ("d", None), ("c", None)]


def _single(kind, n, shift, prec):
    if kind in ("A", "a"):
        return getattr(differences, kind)(n, shift, prec).value
    return getattr(differences, kind)(n, prec).value


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    case=st.sampled_from(KINDS),
    n=st.integers(min_value=2, max_value=400),
    target=st.integers(min_value=10, max_value=40),
    data=st.data(),
)
def test_kernel_batch_single_and_precision_agree(case, n, target, data):
    kind, shift = case
    k = shift[1] if shift else 1
    m = data.draw(st.integers(min_value=1, max_value=n), label="m")
    # a dense index set: the batch takes its values from the difference table
    batch = differences.sequence_many(kind, list(range(1, n + 1)), target, shift=shift)
    value = batch[m - 1].value
    working = required_working_digits(kind, n, target, k=k)

    # batch and single call at the batch's budget round the same integer
    assert _single(kind, m, shift, PrecisionBudget(target, working)) == value

    # the budget delivers its target against an evaluation 30 digits wider,
    # on the scale the budget assumes for exponentially small kinds
    wide = _single(kind, m, shift, target + 30)
    with workdps(working + 30):
        scale = max(abs(wide), mpf(10) ** -smallness_digits(kind, m, k))
        assert abs(value - wide) <= mpf(10) ** -target * scale

    # the integer transform stays within 2^m units of 2^-P of the exact sum
    # of its mpf inputs, here represented 64 bits finer
    bits = differences._fixed_bits(working)
    q = RationalShift(*shift) if shift else None
    with workdps(working):
        xs = [mpf(0)] * (m + 1)
        for j in range(1 if kind == "c" else 2, m + 1):
            if q:
                xs[j] = mpcore.hurwitz_int(j, q, working) / mpf(q.k) ** j
            else:
                xs[j] = differences._input(kind, j, mpcore.zeta_int(j + (kind == "c"), working))
    coarse = differences._binomial_dot(m, [differences._to_fixed(x, bits) for x in xs])
    fine = differences._binomial_dot(m, [differences._to_fixed(x, bits + 64) for x in xs])
    assert abs((coarse << 64) - fine) <= (2 ** m << 64) + 2 ** m


def test_difference_table_matches_dot_products():
    xs = [0, 0] + [3 ** j - 7 * j for j in range(2, 40)]
    table = differences._difference_table(xs, range(40))
    assert table == {n: differences._binomial_dot(n, xs) for n in range(40)}


def test_sparse_batch_matches_dense_batch():
    dense = differences.sequence_many("b", list(range(1, 61)), 15)
    sparse = differences.sequence_many("b", [7, 33, 60], 15)
    assert [p.value for p in sparse] == [dense[n - 1].value for n in (7, 33, 60)]

