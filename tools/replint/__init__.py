"""replint — the project-specific invariant linter for the GEM reproduction.

The GEM model's correctness rests on invariants the paper states in
prose: non-negative embeddings under the ReLU projection (Sec. III), the
``(2K+1)``-dimensional pair transform (Sec. IV), a seeded
``np.random.Generator`` threaded through every stochastic component, and
vectorised (loop-free) hot paths behind the Table VI / Fig 7 efficiency
claims.  ``replint`` turns those review-time conventions into
machine-checked rules over the AST:

========  ==============================================================
REP001    No global ``np.random.*`` calls and no unseeded
          ``np.random.default_rng()`` outside test fixtures — all
          randomness must accept an explicit ``np.random.Generator``
          (normalised via :func:`repro.utils.rng.ensure_rng`).
REP002    No Python-level ``for``/``while`` loops over users, events or
          pairs inside the hot-path modules (``repro/online``,
          ``repro/serving``, ``repro/core/adaptive``,
          ``repro/core/fold_in``) unless annotated with
          ``# replint: allow-loop(<reason>)``.
REP003    Public functions in ``repro/core``, ``repro/online`` and
          ``repro/serving`` must carry complete type annotations
          (every parameter and the return type).
REP004    ``np.asarray``/``np.array`` calls inside public functions of
          the same packages must pin an explicit ``dtype`` — the
          public-API boundary is where float32 embeddings, Python lists
          and int32 ids enter the system.
REP005    Embedding matrices (reached through ``EmbeddingSet`` accessors:
          ``.embeddings``, ``.matrices``, ``.of(...)``,
          ``user_vectors``/``event_vectors``) may only be mutated in
          place inside ``core/trainer.py`` and ``core/fold_in.py`` —
          guarding the non-negative projection and the Hogwild write
          discipline.
REP006    Public symbols in ``repro/serving`` (the module itself, public
          classes, public functions and methods) must carry docstrings —
          the serving layer is an operational surface whose contracts
          (thread-safety, deadline behaviour) live in its docstrings
          (see DESIGN.md §8 and docs/OPERATIONS.md).
REP007    **Lock discipline** (project pass): attributes declared
          ``# replint: guarded-by(<lock>)`` on their ``__init__``
          assignment may only be read or written inside a
          ``with self.<lock>:`` scope, or from private methods
          *transitively proven* to hold the lock (every internal call
          site holds it).  ``__init__`` itself is exempt (object
          confinement).  The same declarations feed the ``REPRO_TSAN``
          runtime sanitizer (``repro/sanitizer.py``).
REP008    **Lock ordering** (project pass): the per-class lock
          acquisition graph — edges from every ``with self.B:`` (or
          self-call that acquires ``B``) reached while holding ``A`` —
          must be acyclic; a cycle is a latent deadlock.
REP009    **Store lifecycle** (project pass): ``MemmapStore`` write
          operations (``fill_random``, ``load_from``) require write
          state, and views of a still-writable store must never reach a
          serving-engine constructor — ``freeze()`` first.  Helper
          functions that write to or launder views of a store argument
          are summarised interprocedurally.
REP010    **Outcome exhaustiveness** (project pass): in serving modules,
          every exit path of a ``-> RequestOutcome`` function returns a
          ``RequestOutcome`` (or delegates to one); answered outcomes
          carry ``stats=``, shed outcomes carry a ``shed_reason`` from
          the declared set, and every rung literal is in the declared
          ladder (``serving/lifecycle.py``).  No silent drops.
========  ==============================================================

Suppression pragmas (same line as the statement, or the line above)::

    for f in range(dim):  # replint: allow-loop(2K+1 dims, not candidates)
    rng = np.random.default_rng()  # replint: allow(REP001): entropy entry point

Declaration pragma for the concurrency passes (on an ``__init__``
assignment; ``<lock>`` must name a ``threading.Lock``/``RLock`` created
in the same ``__init__``)::

    self._cache = OrderedDict()  # replint: guarded-by(_cache_lock)

Run as ``python -m replint src tests benchmarks`` (with ``tools`` on
``PYTHONPATH``; ``scripts/check.sh`` wires this up).  ``--baseline FILE``
suppresses accepted pre-existing findings by fingerprint;
``--write-baseline FILE`` emits one.
"""

from replint.config import LintConfig
from replint.project import PROJECT_RULES
from replint.rules import ALL_RULES, RULE_CODES
from replint.runner import (
    Violation,
    lint_file,
    lint_paths,
    lint_source,
    load_baseline,
    write_baseline,
)

__version__ = "2.0.0"

__all__ = [
    "ALL_RULES",
    "LintConfig",
    "PROJECT_RULES",
    "RULE_CODES",
    "Violation",
    "__version__",
    "lint_file",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "write_baseline",
]
