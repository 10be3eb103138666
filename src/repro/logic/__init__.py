"""Two-level logic minimization substrate.

This package is a from-scratch reimplementation of the combinational
logic machinery the paper borrows from SIS/ESPRESSO: positional-cube
covers, the unate-recursive tautology and complement operators, the
heuristic ESPRESSO loop (EXPAND / IRREDUNDANT / REDUCE) with
multi-output term sharing, an exact Quine–McCluskey + unate-covering
minimizer (footnote 6 of the paper), and PLA text output.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".cube": "Cube supercube_of",
        ".cover": "Cover",
        ".tautology": "is_tautology covers_cube cover_covers_cube_multi",
        ".complement": "complement complement_cube cube_sharp",
        ".espresso": "espresso expand irredundant reduce_cover make_offset",
        ".exact": "exact_minimize generate_primes unate_cover",
        ".minimize": "minimize verify_cover MinimizationError",
        ".pla": "write_pla",
    },
)
