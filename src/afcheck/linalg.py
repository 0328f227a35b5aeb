"""Small exact linear algebra over the integers (matrices as row lists).

Everything here is fraction-free: the determinant uses Bareiss elimination
(Math. Comp. 22, 1968), whose every division is exact, and the
characteristic polynomial uses Faddeev-LeVerrier, whose divisions are exact
on integer matrices.
"""


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    n, m, k = len(a), len(b[0]), len(b)
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)]
            for i in range(n)]


def trace(a):
    return sum(a[i][i] for i in range(len(a)))


def det(a):
    """Determinant of an integer matrix by fraction-free Bareiss elimination."""
    n = len(a)
    m = [list(row) for row in a]
    sign, prev = 1, 1
    for k in range(n - 1):
        row_k = m[k]
        if not row_k[k]:
            swap = next((r for r in range(k + 1, n) if m[r][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign, row_k = -sign, m[k]
        pivot = row_k[k]
        for row in m[k + 1:]:
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (pivot * row[j] - f * row_k[j]) // prev
        prev = pivot
    return sign * m[-1][-1] if n else 1


def charpoly(a):
    """Characteristic polynomial det(xI - A) of an integer matrix,
    low-degree-first, monic, with integer coefficients.

    Faddeev-LeVerrier recursion; on integer matrices each step's division
    by k is exact.
    """
    n = len(a)
    coeffs = [1]  # c_0 = 1 for x^n
    mk = identity(n)
    for k in range(1, n + 1):
        mk = mat_mul(a, mk)
        ck, rem = divmod(-trace(mk), k)
        assert rem == 0, "Faddeev-LeVerrier division not exact"
        coeffs.append(ck)
        if k < n:
            for i in range(n):
                mk[i][i] += ck
    return list(reversed(coeffs))
