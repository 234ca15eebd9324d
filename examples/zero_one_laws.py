"""0-1 laws, computed exactly (the Section 1 discussion).

Fagin's 0-1 law: every FO sentence has asymptotic probability 0 or 1
over random labeled structures.  The paper proves no closed-form route
to this exists in general (FOMC is #P1-hard), but for liftable sentences
we can *watch* the convergence with exact arithmetic.

Includes the paper's own running example — where the exact computation
reveals that the limit stated in the paper's Section 1 (mu_n -> 0 for
forall x exists y R(x, y)) is a slip: the sequence (1 - 2^-n)^n tends
to 1.  See EXPERIMENTS.md.

Run:  python examples/zero_one_laws.py
"""


from repro import parse
from repro.asymptotics import mu_n
from repro.options import SolverOptions


def show(title, formula, sizes, method="auto"):
    print(title)
    print("  Phi =", formula)
    for n in sizes:
        value = mu_n(formula, n, options=SolverOptions(method=method))
        print("  mu_{:>2} = {:<22} ~ {:.6f}".format(n, str(value)[:22], float(value)))
    print()


def main():
    # The paper's running example: mu_n = (2^n - 1)^n / 2^(n^2) = (1-2^-n)^n.
    show(
        "Every element has an R-successor (limit 1; the paper's '-> 0' is a slip):",
        parse("forall x. exists y. R(x, y)"),
        (1, 2, 4, 8, 16),
    )

    # A genuinely limit-0 sentence: some element relates to EVERYTHING.
    show(
        "Some element relates to everything (limit 0):",
        parse("exists x. forall y. R(x, y)"),
        (1, 2, 4, 8, 16),
    )

    # Limit-1: somewhere a P holds.
    show(
        "Some element satisfies P (limit 1):",
        parse("exists x. P(x)"),
        (1, 2, 4, 8),
    )

    # An extension-axiom-flavored FO2 sentence: every element has a
    # distinct R-neighbor.  Limit 1.
    show(
        "Every element has a distinct neighbor (limit 1):",
        parse("forall x. exists y. (R(x, y) & x != y)"),
        (2, 4, 8, 16),
    )


if __name__ == "__main__":
    main()
