"""The front/back coproduct action on a tensor product (criterion 12).

A chain module on V ox W assembled from front/back word splits, one
integrated factor per side.  It is a chain module but not subdivision
invariant, so it is not the integral of the tensor representation form.
That integral is its first-order subdivision limit: summing the front/back
action over the N-fold edgewise subdivision of the word simplex approaches
the integrated tensor form with an error linear in 1/N.
"""

from cartankit.graded import compose, tensor_operator
from cartankit.integrate import ChainModule, differentiate_module, integrate_series
from cartankit.reps import CartanRep, tensor_rep


def aw_coproduct_word(letters):
    """Front/back splits of a word: [(front letters, back letters, prefix)]."""
    k = len(letters)
    return [(list(letters[:i]), list(letters[i:]), list(letters[:i])) for i in range(k + 1)]


class AWTensorModule:
    """Chain module on a tensor product assembled through front/back word
    splits of the coproduct (one integrated factor per side)."""

    def __init__(self, rep_a, rep_b):
        self.rep_a = rep_a
        self.rep_b = rep_b
        self.points_a = ChainModule(rep_a).act_point
        self.points_b = ChainModule(rep_b).act_point
        self.tensor = tensor_rep(rep_a, rep_b)
        self.algebra = rep_a.algebra

    @property
    def complex(self):
        return self.tensor.complex

    def act_word(self, letters):
        out = None
        for front, back, prefix in aw_coproduct_word(letters):
            op_a = integrate_series(self.rep_a, front)
            op_b = integrate_series(self.rep_b, back)
            if prefix:
                op_b = compose(self.points_b(prefix), op_b)
            piece = tensor_operator(op_a, op_b)
            out = piece if out is None else out + piece
        return out

    def act_point(self, prefix):
        return tensor_operator(self.points_a(prefix), self.points_b(prefix))


def differentiate_richardson(module, h: float) -> CartanRep:
    """``differentiate_module`` at steps h and h/2, extrapolated as
    (1/3) (4 f(h/2) - f(h)) on the stacked L and B."""
    coarse, fine = differentiate_module(module, h), differentiate_module(module, h / 2.0)
    L, B = ((1.0 / 3.0) * (4.0 * b - a) for a, b in ((coarse.L_stack, fine.L_stack),
                                                      (coarse.B_stack, fine.B_stack)))
    return CartanRep(module.algebra, module.complex, L, B)


def aw_monoidality_residual(rep_a, rep_b, h: float = 1e-3) -> float:
    """Differentiating the front/back coproduct action recovers the tensor
    representation; max recovery error over all generators."""
    module = AWTensorModule(rep_a, rep_b)
    recovered = differentiate_richardson(module, h)
    worst = 0.0
    for a, b in zip(recovered.L, module.tensor.L):
        worst = max(worst, (a - b).norm())
    for a, b in zip(recovered.B, module.tensor.B):
        worst = max(worst, (a - b).norm())
    return worst


def aw_tensor_residual(rep_a, rep_b, letters) -> float:
    """Action of a word on a tensor product through front/back splits
    versus the direct action of the tensor representation.

    The two sides agree to first order (differentiation recovers the same
    tensor representation; see ``aw_monoidality_residual``) but differ at
    higher order: the coproduct route is a chain-level module that is not
    subdivision invariant, so it is not the integral of the tensor
    representation form.  For one-letter words the gap comes from the
    degree-0 actions and vanishes when they are zero; from two letters on
    it persists even then.  The integrated tensor form is the first-order
    limit of the coproduct action under edgewise subdivision of the word
    simplex."""
    module = AWTensorModule(rep_a, rep_b)
    direct = integrate_series(module.tensor, letters)
    return (module.act_word(letters) - direct).norm()
