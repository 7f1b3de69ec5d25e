"""The Hopf algebra of functions on a finite group.

Coproduct, counit, and antipode are the pullbacks of multiplication,
unit, and inversion; the right adjoint coaction is the pullback of
conjugation.  The pullbacks are gathers of their input's int view and
land in dense Func tables; the counit is the canonical triple of one
entry, as `parse_scalar` gives a literal.
"""

from __future__ import annotations

from .funcs import Func
from .groups import FiniteGroup
from .scalars import gathered, lowest_terms

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
        positions = [xy for row in self.group.table for xy in row]
        return self._gather(alpha, (self.size, self.size), positions)

    def counit(self, alpha: Func) -> tuple[int, int, int]:
        """a(e) as its canonical triple (a, b, d)."""
        self._check_element(alpha)
        d, re, im = alpha.view
        e = self.group.identity
        return lowest_terms(re[e], 0 if im is None else im[e], d)

    def antipode(self, alpha: Func) -> Func:
        """[antipode(a)](x) = a(x^-1)."""
        self._check_element(alpha)
        return self._gather(alpha, (self.size,), self.group.inv_table)

    def project_ker_counit(self, alpha: Func) -> Func:
        """Subtract a(e) * 1, landing in the kernel of the counit."""
        self._check_element(alpha)
        e = self.group.identity
        view = gathered(alpha.view, lambda part: [v - part[e] for v in part])
        return Func((self.size,), view=view)

    def is_ker_counit(self, alpha: Func) -> bool:
        self._check_element(alpha)
        return self.counit(alpha) == (0, 0, 1)

    def adjoint_coaction(self, alpha: Func) -> Func:
        """[adjoint(a)](x, y) = a(y^-1 x y), a table on G x G."""
        self._check_element(alpha)
        g, n = self.group, self.size
        positions = [g.conj(x, y) for x in range(n) for y in range(n)]
        return self._gather(alpha, (n, n), positions)

    def _gather(self, alpha: Func, shape: tuple[int, ...], positions: list[int]) -> Func:
        return Func(shape, view=gathered(alpha.view, lambda part: map(part.__getitem__, positions)))

    def _check_element(self, alpha: Func) -> None:
        if alpha.shape != (self.size,):
            raise ValueError(
                f"element shape {alpha.shape} does not match group order {self.size}"
            )
