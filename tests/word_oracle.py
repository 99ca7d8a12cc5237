"""Word oracles for the length-spectrum tests, sharing no code with hypzeta.

A primitive hyperbolic class of the modular group is a cyclic word in
L = [[1,1],[0,1]] and R = [[1,0],[1,1]] that uses both letters and is no
proper power; its canonical name is its minimal rotation (L before R),
a Lyndon word, and its invariant the trace of the word's matrix. The
number of such words of each length is Moebius's divisor sum.
"""

import itertools


def trace_of_word(word):
    """Trace of the matrix product of a word in L and R."""
    a, b, c, d = 1, 0, 0, 1
    for letter in word:
        if letter == "L":
            b, d = a + b, c + d
        elif letter == "R":
            a, c = a + b, c + d
        else:
            raise ValueError(f"word may only contain L and R, got {letter!r}")
    return a + d


def canonical_rotation(word):
    """Lexicographically minimal rotation (L sorts before R)."""
    return min(word[i:] + word[:i] for i in range(len(word)))


def is_primitive(word):
    """Whether the cyclic word uses both letters and is no proper power."""
    return "L" in word and "R" in word and (word + word).find(word, 1) == len(word)


def brute_force_classes(max_trace):
    """{canonical word: trace} from every word of up to max_trace - 1
    letters; a word using both letters has trace above its length."""
    seen = {}
    for ell in range(2, max_trace):
        for bits in itertools.product("LR", repeat=ell):
            word = "".join(bits)
            if is_primitive(word):
                canon = canonical_rotation(word)
                if canon not in seen and trace_of_word(canon) <= max_trace:
                    seen[canon] = trace_of_word(canon)
    return seen


def lyndon_words(max_trace):
    """Yield (word, trace) for each Lyndon word using both letters with
    trace <= max_trace, from the prenecklace tree of Fredricksen, Kessler
    and Maiorana: a prefix of period p extends by its letter p places
    back, keeping p, and after an L also by R, a Lyndon word. A prefix
    is cut once its trace with R appended exceeds max_trace, since such
    a word ends in R and neither letter lowers a trace."""
    stack = [("L", 1, 1, 1, 0, 1)]  # prefix, period, matrix [[a, b], [c, d]]
    while stack:
        word, p, a, b, c, d = stack.pop()
        if p == len(word) > 1:
            yield word, a + d
        if a + b + d > max_trace:
            continue
        if word[-p] == "L":
            stack.append((word + "L", p, a, a + b, c, c + d))
            stack.append((word + "R", len(word) + 1, a + b, b, c + d, d))
        else:
            stack.append((word + "R", p, a + b, b, c + d, d))


def _moebius(n):
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


def necklace_count(length):
    """Aperiodic binary necklaces of the given length using both letters."""
    if length < 2:
        raise ValueError("length must be at least 2")
    total = sum(_moebius(d) * 2 ** (length // d) for d in range(1, length + 1) if length % d == 0)
    return total // length
