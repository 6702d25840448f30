"""arnold_lab: a formal power series laboratory for the tangent-functions
limit problem.

Exact half: truncated series over rationals (series), series reversion
(inversion), elementary generators (elementary), an expression language
(expressions), and the exact limit of (f - g)/(g_inv - f_inv) (limits).
Numeric half (numeric): double-precision geometry of the same picture plus
the flat counterexample whose ratio tends to 1/e.  Import each name from
its module; the package imports none, so a subcommand loads only what it runs.
"""

__version__ = "0.1.0"
