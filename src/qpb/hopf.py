"""The Hopf algebra of functions on a finite group.

Coproduct, counit, and antipode are the pullbacks of multiplication,
unit, and inversion; the right adjoint coaction is the pullback of
conjugation.  All maps land in dense Func tables; they read their
input's values as Scalars.
"""

from __future__ import annotations

from .funcs import Func
from .groups import FiniteGroup
from .scalars import Scalar

__all__ = ["HopfAlgebra"]


class HopfAlgebra:
    """Function algebra on a finite group with its Hopf structure maps."""

    def __init__(self, group: FiniteGroup):
        if group.identity is None or group.inv_table is None:
            raise ValueError("Hopf structure needs a group with identity and inverses")
        self.group = group
        self.size = group.order

    def one(self) -> Func:
        return Func.ones((self.size,))

    def basis(self):
        return (Func.indicator((self.size,), (a,)) for a in range(self.size))

    def coproduct(self, alpha: Func) -> Func:
        """[coproduct(a)](x, y) = a(xy), a table on G x G."""
        self._check_element(alpha)
        mul = self.group.table
        vals = alpha.values
        n = self.size
        return Func((n, n), [vals[mul[x][y]] for x in range(n) for y in range(n)])

    def counit(self, alpha: Func) -> Scalar:
        self._check_element(alpha)
        return alpha.values[self.group.identity]

    def antipode(self, alpha: Func) -> Func:
        """[antipode(a)](x) = a(x^-1)."""
        self._check_element(alpha)
        inv, vals = self.group.inv_table, alpha.values
        return Func((self.size,), [vals[inv[x]] for x in range(self.size)])

    def project_ker_counit(self, alpha: Func) -> Func:
        """Subtract a(e) * 1, landing in the kernel of the counit."""
        self._check_element(alpha)
        c = self.counit(alpha)
        return Func((self.size,), [v - c for v in alpha.values])

    def is_ker_counit(self, alpha: Func) -> bool:
        self._check_element(alpha)
        return not alpha.values[self.group.identity]

    def adjoint_coaction(self, alpha: Func) -> Func:
        """[adjoint(a)](x, y) = a(y^-1 x y), a table on G x G."""
        self._check_element(alpha)
        g, vals = self.group, alpha.values
        n = self.size
        return Func((n, n), [vals[g.conj(x, y)] for x in range(n) for y in range(n)])

    def _check_element(self, alpha: Func) -> None:
        if alpha.shape != (self.size,):
            raise ValueError(
                f"element shape {alpha.shape} does not match group order {self.size}"
            )
