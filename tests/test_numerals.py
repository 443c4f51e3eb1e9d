import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import definitions
from goodstein.errors import DigitOutOfRange, DomainError, InvalidBase, Underflow
from goodstein.numerals import (
    CUT,
    DIV_LIMIT,
    Ordering,
    _divmod,
    _evaluate,
    _horner,
    decrement_in_base,
    from_digits,
    lex_compare,
    power_predecessor,
    render,
    to_digits,
)


# Small, CUT-sized, word-crossing and very large bases.
BASES = st.sampled_from([2, 3, 10, 250, 2**64 + 13]) | st.integers(2, 1000)


@st.composite
def wide_values(draw, base):
    """Values from 0 up to about 2e4 bits, with and without internal zero blocks.

    ``base**k`` and its neighbours have long runs of zero (or of
    ``base - 1``) digits, and a sum of two far-apart powers has a zero
    block in its middle, so the divide-and-conquer split gets low halves
    that need zero padding.
    """
    max_k = max(1, 20_000 // base.bit_length())
    k = draw(st.integers(0, max_k))
    shape = draw(st.sampled_from(["bits", "power", "two_powers", "zero"]))
    if shape == "zero":
        return 0
    if shape == "bits":
        bits = draw(st.sampled_from([CUT - 1, CUT, CUT + 1]) | st.integers(1, 20_000))
        return draw(st.integers(2 ** (bits - 1), 2**bits - 1))
    delta = draw(st.integers(-1, 1))
    if shape == "power":
        return base**k + delta
    j = draw(st.integers(0, k))
    return draw(st.integers(1, base - 1)) * base**k + base**j + delta


# --- to_digits ---------------------------------------------------------------

def test_to_digits_25_base_2():
    assert to_digits(25, 2) == (1, 1, 0, 0, 1)


def test_to_digits_zero_is_empty():
    assert to_digits(0, 7) == ()


def test_to_digits_large_base_3_value():
    # 2*3**18 + 3**2 + 1; frozen from the divmod oracle
    expected = (2,) + (0,) * 15 + (1, 0, 1)
    assert 2 * 3**18 + 3**2 + 1 == 774840988
    assert definitions.digits_of(774840988, 3) == expected
    assert to_digits(774840988, 3) == expected


@pytest.mark.parametrize("base", [1, 0, -3])
def test_to_digits_rejects_bad_base(base):
    with pytest.raises(InvalidBase):
        to_digits(5, base)


def test_to_digits_rejects_negative_value():
    with pytest.raises(DomainError):
        to_digits(-1, 2)


# --- from_digits --------------------------------------------------------------

@pytest.mark.parametrize(
    "digits, base, expected",
    [
        ((1, 1, 0, 0, 1), 2, 25),
        ((1, 1, 0, 0, 1), 3, 109),
        ((), 5, 0),
    ],
)
def test_from_digits(digits, base, expected):
    assert from_digits(digits, base) == expected


@pytest.mark.parametrize(
    "digits, index",
    [
        ((1, 3, 0), 1),
        # two bad digits, one negative and one at least the base, on both
        # sides of CUT digits: the first one in the sequence is named
        ((1,) * 20 + (-1,) + (2,) * 20 + (3,) + (0,) * (CUT - 43), 20),
        ((1,) * 40 + (5,) + (-4,) + (2,) * (CUT - 41), 40),
        ((2,) * 2 * CUT + (-1,) + (1,) * (CUT - 2) + (3,), 2 * CUT),
    ],
    ids=["3-digits", "CUT-1-digits", "CUT+1-digits", "3CUT-digits"],
)
def test_from_digits_rejects_digit_out_of_range(digits, index):
    with pytest.raises(DigitOutOfRange) as excinfo:
        from_digits(digits, 3)
    assert excinfo.value.index == index
    assert excinfo.value.digit == digits[index]


def test_from_digits_rejects_negative_digit():
    with pytest.raises(DigitOutOfRange):
        from_digits((1, -1), 10)


def test_round_trip_exhaustive_small():
    for base in range(2, 17):
        for value in range(10_000):
            digits = to_digits(value, base)
            assert from_digits(digits, base) == value
            assert all(0 <= d < base for d in digits)
            if value > 0:
                assert digits[0] != 0


@given(value=st.integers(0, 10**60), base=st.integers(2, 1000))
def test_round_trip_hypothesis(value, base):
    digits = to_digits(value, base)
    assert digits == definitions.digits_of(value, base)
    assert from_digits(digits, base) == value


@settings(deadline=None, max_examples=150)
@given(data=st.data(), base=BASES)
def test_to_digits_matches_divmod_loop(data, base):
    value = data.draw(wide_values(base))
    assert to_digits(value, base) == definitions.digits_of(value, base)


@settings(deadline=None, max_examples=150)
@given(data=st.data(), base=BASES, leading_zeros=st.integers(0, 3))
def test_from_digits_matches_horner(data, base, leading_zeros):
    digits = (0,) * leading_zeros + definitions.digits_of(data.draw(wide_values(base)), base)
    assert from_digits(digits, base) == definitions.value_of(digits, base)


@given(
    base=st.integers(2, 40),
    blocks=st.lists(
        st.tuples(st.integers(0, 39), st.integers(0, 3 * CUT)), min_size=1, max_size=8
    ),
)
def test_from_digits_matches_horner_on_digit_runs(base, blocks):
    # runs of one repeated digit put zero blocks (and base-1 blocks) on
    # both sides of every split point
    digits = tuple(d % base for d, length in blocks for _ in range(length))
    assert from_digits(digits, base) == definitions.value_of(digits, base)


def test_radix_conversion_at_block_boundaries():
    for base in (2, 3, 10, 250, 2**64 + 13):
        for k in (CUT - 1, CUT, CUT + 1, 2 * CUT, 2 * CUT + 1, 4 * CUT - 1, 4 * CUT):
            for value in (base**k - 1, base**k, base**k + 1, base ** (2 * k) + base**k):
                digits = to_digits(value, base)
                assert digits == definitions.digits_of(value, base)
                assert from_digits(digits, base) == value


# Bases from 2 to past 2**64: 256 is a power of two and 257 is not, four
# digits of base 65,536 fill 64 bits, and 2**64 + 13 is wider than a word.
EVALUATED_BASES = [2, 10, 256, 257, 65_536, 2**64 + 13]

# Lengths with every head (len % 4): short lists, lists on both sides of 40
# digits, and lists on both sides of one and of several blocks of CUT
# digits, where ``_evaluate`` turns from the one-digit loop to ``_horner``.
EVALUATED_LENGTHS = sorted(
    set(range(8))
    | set(range(36, 44))
    | set(range(CUT - 4, CUT + 4))
    | {2 * CUT, 2 * CUT + 3, 300}
)


@st.composite
def digit_lists(draw, base):
    """Up to 300 digits: random, all zero, all ``base - 1``, or runs with zero blocks."""
    length = draw(st.sampled_from(EVALUATED_LENGTHS) | st.integers(0, 300))
    fill = draw(st.sampled_from(["random", "zero", "top", "runs"]))
    if fill == "zero":
        return (0,) * length
    if fill == "top":
        return (base - 1,) * length
    if fill == "random":
        return tuple(draw(st.lists(st.integers(0, base - 1), min_size=length, max_size=length)))
    # runs of one repeated digit, zero runs included, put all-zero blocks of
    # CUT digits between nonzero ones
    runs = draw(st.lists(st.tuples(st.integers(0, base - 1) | st.just(0), st.integers(0, 2 * CUT))))
    return tuple(d for d, n in runs for _ in range(n))[:300]


@settings(deadline=None, max_examples=300)
@given(data=st.data(), base=st.sampled_from(EVALUATED_BASES))
def test_evaluate_and_horner_match_one_digit_horner(data, base):
    digits = data.draw(digit_lists(base))
    expected = definitions.value_of(digits, base)
    assert _horner(digits, base) == expected
    assert _evaluate(digits, base) == expected


@pytest.mark.parametrize("base", EVALUATED_BASES, ids=str)
def test_evaluate_and_horner_match_one_digit_horner_at_every_edge_length(base):
    rng = random.Random(base)
    for length in EVALUATED_LENGTHS:
        for digits in (
            tuple(rng.randrange(base) for _ in range(length)),
            (0,) * length,
            (base - 1,) * length,
            (1,) + (0,) * (length - 1) if length else (),
        ):
            expected = definitions.value_of(digits, base)
            assert _horner(digits, base) == expected, (length, digits)
            assert _evaluate(digits, base) == expected, (length, digits)


@settings(deadline=None, max_examples=150)
@given(data=st.data(), base=BASES | st.sampled_from(EVALUATED_BASES))
def test_from_digits_inverts_to_digits(data, base):
    value = data.draw(wide_values(base))
    assert from_digits(to_digits(value, base), base) == value


@pytest.mark.parametrize(
    "base", [2**64, 2**64 + 13, 2**2000 + 1, 3**1300], ids=["2^64", "2^64+13", "2^2000+1", "3^1300"]
)
def test_to_digits_around_the_first_power_of_a_huge_base(base):
    # base**CUT is skipped below 2**(CUT * (bits(base) - 1)) and used from there on
    power = base**CUT
    edge = 2 ** (CUT * (base.bit_length() - 1))
    for value in (1, 5, base - 1, base, base + 1, edge - 1, edge, power - 1, power, power + 1):
        digits = to_digits(value, base)
        assert digits == definitions.digits_of(value, base)
        assert from_digits(digits, base) == value


def test_to_digits_of_small_values_in_a_100000_bit_base():
    base = 2**100_000 + 1
    for value in (0, 1, 5, 2**99_999, base - 1, base, base + 1, base * (base - 1)):
        assert to_digits(value, base) == definitions.digits_of(value, base)


@pytest.mark.parametrize(
    "value, base",
    [(3**70_000 + 12_345, 250), (2**150_000 - 1, 10), (7**70_000 + 7**35_000, 2**64 + 13)],
    ids=["3^70000+12345", "2^150000-1", "7^70000+7^35000"],
)
def test_to_digits_of_values_past_the_recursive_division_limit(value, base):
    # 1e5 to 2e5 bits: the top splits divide by recursion, not by the builtin
    assert to_digits(value, base) == definitions.digits_of(value, base)


# --- _divmod -------------------------------------------------------------------

# hypothesis favours small integers, so widths past the limit get a range of their own
DIVISOR_WIDTHS = (
    st.sampled_from(
        [1, 2, DIV_LIMIT - 1, DIV_LIMIT, DIV_LIMIT + 1, 2 * DIV_LIMIT + 1, 2 * DIV_LIMIT + 2]
    )
    | st.integers(1, 60_000)
    | st.integers(2 * DIV_LIMIT, 60_000)
)


@settings(deadline=None, max_examples=150)
@given(
    width=DIVISOR_WIDTHS,
    shape=st.sampled_from(["below", "near", "any", "top"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_divmod_matches_the_builtin(width, shape, seed):
    # to_digits divides a block below power**2 by power, and the recursion
    # divides below 2**width * b; odd widths take the pad branch, random
    # divisors the correction loop. The operands come from a seeded
    # generator: hypothesis caps the bytes one example may draw, which
    # would discard every example with a dividend much past 20,000 bits.
    rng = random.Random(seed)
    b = rng.getrandbits(width) | 1 << (width - 1)
    low = rng.randrange(b)
    if shape == "below":
        a = low
    elif shape == "near":
        a = b * b - 1 - low
    elif shape == "any":
        a = rng.randrange(b * b)
    else:
        a = (b << width) - 1 - low
    assert _divmod(a, b) == divmod(a, b)


@pytest.mark.parametrize("width", [2 * DIV_LIMIT + 1, 2 * DIV_LIMIT + 2, 33_333])
def test_divmod_of_the_widest_quotient_by_all_ones(width):
    # the top half of the dividend equals the divisor's, the quotient estimate's own branch
    b = 2**width - 1
    a = b * b - 1
    assert _divmod(a, b) == divmod(a, b) == (b - 1, b - 1)


def test_divmod_of_seeded_random_operands():
    # a random divisor's low half makes the quotient estimate too large,
    # the correction loop's case
    rng = random.Random(21)
    for width in (DIV_LIMIT + 1, 2 * DIV_LIMIT + 1, 2 * DIV_LIMIT + 2, 20_001, 60_000):
        b = rng.getrandbits(width) | 1 << (width - 1)
        a = rng.randrange(b * b)
        assert _divmod(a, b) == divmod(a, b)


# --- decrement_in_base ---------------------------------------------------------

def test_decrement_borrow_base_2():
    assert decrement_in_base((1, 1, 0, 0, 0), 2) == (1, 0, 1, 1, 1)


def test_decrement_borrow_base_3():
    assert decrement_in_base((1, 1, 0, 0, 0), 3) == (1, 0, 2, 2, 2)


@pytest.mark.parametrize("base", range(2, 8))
def test_decrement_one_gives_empty(base):
    assert decrement_in_base((1,), base) == ()


def test_decrement_of_empty_underflows():
    with pytest.raises(Underflow):
        decrement_in_base((), 2)


def test_decrement_of_zero_valued_sequence_underflows():
    with pytest.raises(Underflow):
        decrement_in_base((0, 0), 2)


@given(value=st.integers(1, 10**40), base=st.integers(2, 100))
def test_decrement_matches_value_oracle_hypothesis(value, base):
    digits = to_digits(value, base)
    assert decrement_in_base(digits, base) == definitions.digits_of(value - 1, base)


def test_decrement_strips_leading_zeros_from_noncanonical_input():
    # (0, 0, 5) spells 5; the result must spell 4 canonically
    assert decrement_in_base((0, 0, 5), 10) == (4,)


# --- lex_compare ----------------------------------------------------------------

@pytest.mark.parametrize(
    "a, b, expected",
    [
        ((2, 2, 2), (1, 0, 0, 0), Ordering.LESS),
        ((1, 0, 2, 2, 2), (1, 1, 0, 0, 0), Ordering.LESS),
        ((5,), (5,), Ordering.EQUAL),
        ((1, 0, 0, 0), (2, 2, 2), Ordering.GREATER),
        ((), (1,), Ordering.LESS),
    ],
)
def test_lex_compare_cases(a, b, expected):
    assert lex_compare(a, b) is expected


def _all_sequences(max_digit, max_len):
    """Every leading-nonzero sequence with digits <= max_digit, length <= max_len."""
    seqs = [()]
    frontier = [(d,) for d in range(1, max_digit + 1)]
    for _ in range(max_len):
        seqs.extend(frontier)
        frontier = [s + (d,) for s in frontier for d in range(max_digit + 1)]
    return seqs


def test_lex_compare_is_total_order_exhaustive():
    seqs = _all_sequences(max_digit=3, max_len=4)
    n = len(seqs)
    assert n == 256
    cmp = [[lex_compare(a, b).value for b in seqs] for a in seqs]
    # every sequence here is distinct, so EQUAL appears on the diagonal only
    for i in range(n):
        for j in range(n):
            assert cmp[i][j] == -cmp[j][i]
            assert (cmp[i][j] == 0) == (i == j)
    # transitivity over all triples: whenever i < j, everything j is below,
    # i is below too; the bitmask subset test covers every k at once
    less_mask = [0] * n
    for i in range(n):
        for k in range(n):
            if cmp[i][k] < 0:
                less_mask[i] |= 1 << k
    for i in range(n):
        for j in range(n):
            if cmp[i][j] < 0:
                assert less_mask[j] & ~less_mask[i] == 0


@given(
    a=st.lists(st.integers(0, 6), max_size=6).map(tuple),
    b=st.lists(st.integers(0, 6), max_size=6).map(tuple),
)
def test_lex_compare_matches_length_first_key(a, b):
    key_a, key_b = (len(a), a), (len(b), b)
    expected = Ordering.LESS if key_a < key_b else Ordering.GREATER if key_a > key_b else Ordering.EQUAL
    assert lex_compare(a, b) is expected


# --- base independence ------------------------------------------------------------

def test_digit_sequences_carry_no_base():
    from_base_2 = to_digits(25, 2)
    from_base_3 = to_digits(109, 3)
    assert from_base_2 == from_base_3
    assert lex_compare(from_base_2, from_base_3) is Ordering.EQUAL
    assert not hasattr(from_base_2, "base")


# --- render ------------------------------------------------------------------------

@pytest.mark.parametrize(
    "digits, base, expected",
    [
        ((2, 0, 11), 12, "20(11)_12"),
        ((), 9, "0_9"),
        ((1, 23, 23), 24, "1(23)(23)_24"),
        ((1, 0, 0, 0), 2, "1000_2"),
    ],
)
def test_render(digits, base, expected):
    assert render(digits, base) == expected


@st.composite
def numerals_around_the_byte_gate(draw):
    """A base and digits either side of ``render``'s byte gate.

    In a base up to 256, digits that are all bytes (0 to 255) are rendered
    by one translate; a digit below 0 or above 255, and any digit of a
    wider base, is formatted digit by digit.
    """
    base = draw(st.one_of(st.integers(2, 30), st.integers(240, 272)))
    low, high = draw(st.sampled_from([(0, base - 1), (-12, base + 12), (-3, 300)]))
    return draw(st.lists(st.integers(low, high), max_size=80)), base


@given(numeral=numerals_around_the_byte_gate())
@example(numeral=([1, 0], 2))
@example(numeral=([5], 2))
@example(numeral=([0, 1, 2], 2))
@example(numeral=([1, -1, 0], 2))
@example(numeral=(list(range(12)) * 2, 12))
@example(numeral=([255, 0], 256))
@example(numeral=([256], 256))
@example(numeral=([-1, 3], 10))
@example(numeral=([300, 1], 257))
def test_render_matches_per_digit_formatting(numeral):
    digits, base = numeral
    assert render(digits, base) == render(tuple(digits), base) == definitions.render(digits, base)


# --- power_predecessor ----------------------------------------------------------------

@pytest.mark.parametrize("x, n, expected", [(2, 3, 7), (3, 3, 26), (1, 5, 0)])
def test_power_predecessor_cases(x, n, expected):
    assert power_predecessor(x, n) == expected


def test_power_predecessor_identity_exhaustive():
    for x in range(1, 11):
        for n in range(1, 13):
            assert power_predecessor(x, n) == x**n - 1


@given(x=st.integers(1, 50), n=st.integers(1, 40))
def test_power_predecessor_identity_hypothesis(x, n):
    assert power_predecessor(x, n) == x**n - 1


@pytest.mark.parametrize("x, n", [(0, 3), (2, 0), (0, 0)])
def test_power_predecessor_domain(x, n):
    with pytest.raises(DomainError):
        power_predecessor(x, n)
