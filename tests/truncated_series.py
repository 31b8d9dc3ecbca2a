"""Power series in t truncated at a fixed order, with SparsePoly
coefficients: the reference side of the generating-function tests."""

from schubring.polyring import SparsePoly


class TruncatedSeries:
    """A power series in t truncated at a fixed order, with SparsePoly coefficients.

    Supports multiplication and exact division (when the divisor has unit
    constant term), enough to state generating-function identities.
    """

    def __init__(self, coeffs: list[SparsePoly], order: int):
        self.order = order
        self.coeffs = list(coeffs[: order + 1])
        while len(self.coeffs) <= order:
            self.coeffs.append(SparsePoly.zero())

    @staticmethod
    def one(order: int) -> "TruncatedSeries":
        return TruncatedSeries([SparsePoly.const(1)], order)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = self.order
        out = [SparsePoly.zero() for _ in range(n + 1)]
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j in range(0, n - i + 1):
                b = other.coeffs[j]
                if b:
                    out[i + j] = out[i + j] + a * b
        return TruncatedSeries(out, n)

    def __truediv__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        assert other.coeffs[0] == SparsePoly.const(1), "divisor must have constant term 1"
        n = self.order
        out: list[SparsePoly] = []
        for k in range(n + 1):
            acc = self.coeffs[k]
            for j in range(1, k + 1):
                acc = acc - other.coeffs[j] * out[k - j]
            out.append(acc)
        return TruncatedSeries(out, n)

    def __eq__(self, other) -> bool:
        return self.order == other.order and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )
