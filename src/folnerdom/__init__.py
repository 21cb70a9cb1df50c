"""folnerdom: exact-arithmetic certificates for ergodic-average dominance
on discrete amenable groups (Z^d, discrete Heisenberg, lamplighter).

Each name lives in the module that defines it (``folnerdom.chains``,
``folnerdom.dominance``, ...), and importing the package imports nothing
else, so that a CLI subcommand loads only the modules it runs.
"""
