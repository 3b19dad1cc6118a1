"""Small exact integer helpers for 2x2 matrices and 2-vectors (no
floating point). det, adjugate, mat_mul and mat_vec are closed-form 2x2
formulas and raise ValueError on any other shape."""

from __future__ import annotations

Matrix = tuple[tuple[int, ...], ...]
Vector = tuple[int, ...]


def from_rows(rows) -> Matrix:
    try:
        return tuple(map(tuple, rows))
    except TypeError:
        raise ValueError("a matrix must be a sequence of rows") from None


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    (a00, a01), (a10, a11) = a
    (b00, b01), (b10, b11) = b
    return (
        (a00 * b00 + a01 * b10, a00 * b01 + a01 * b11),
        (a10 * b00 + a11 * b10, a10 * b01 + a11 * b11),
    )


def mat_vec(m: Matrix, v: Vector) -> Vector:
    (a, b), (c, d) = m
    x, y = v
    return (a * x + b * y, c * x + d * y)


def det(m: Matrix) -> int:
    (a, b), (c, d) = m
    return a * d - b * c


def adjugate(m: Matrix) -> Matrix:
    (a, b), (c, d) = m
    return ((d, -b), (-c, a))

