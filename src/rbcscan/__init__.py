"""Detection-guided resonant beam charging: scan-time models and evaluation tools.

The package covers four concerns: pinhole camera geometry for projected
receiver sizes (`geometry`), from-scratch detection metrics (`metrics`),
analytic and Monte Carlo scan-time models (`scanning`), and a stochastic
detector oracle with empirical AP profiles (`detector`). File formats and
the CLI live in `formats` and `cli`.

`import rbcscan` loads no submodule and binds only `__version__` and the
two PEP 562 hooks below. The export table lives in `rbcscan._exports`,
compiled on the first read of an export, `__all__` or `dir()`; each
exported name, and each of the submodules above but `formats` and `cli`,
is imported on its first read. Package modules import their siblings
directly, never through `from . import`, so neither `import rbcscan` nor
the CLI compiles the table.
"""

__version__ = "0.1.0"


def __getattr__(name: str):
    from ._exports import resolve

    return resolve(name)


def __dir__() -> list[str]:
    from ._exports import names

    return names()
