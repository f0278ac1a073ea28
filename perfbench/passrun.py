"""One benchmark pass, run in a fresh interpreter so that it pays for cold
caches (``group_of``, product memos, ``alpha``) the way a CLI call does.

    python3 perfbench/passrun.py '<request as JSON>'

Request keys:

- ``src``: directory that holds the ``schurlab`` package;
- ``mode``: ``setup`` (import schurlab and load the bundle), ``verify`` (run
  ``verifier.run`` over ``catalog`` at ``jobs`` and render JSON) or
  ``identities`` (check ``lemmas`` in order at the CLI defaults);
- ``trace``: wrap the layers (see ``layers.py``) and load the bundle traced
  before the timed part.

Prints one JSON line: ``wall_s`` (the timed part), ``output`` (rendered JSON or
report lines), ``error`` (a raised exception, which fails the whole pass),
``rss_kib`` (largest peak RSS of this process and its pool workers), when
traced, ``trace``, and otherwise ``marks``: the times into the timed part at
which each item (a group's ``record_for``, a lemma's check) starts and every
n-th call of a hot function in ``MARKED`` starts. The inputs and the code fix
which calls those are, so the marks cut every serial pass of the same inputs
into the same slices, most under a millisecond long.
"""
from __future__ import annotations

import json
import resource
import sys
import time

# Hot calls that cut an untraced pass into slices, as (name in schurlab, n):
# a clock reading as every n-th call starts. Collection (structure,
# crosscheck), commutators (the suites on structure, which multiply from the
# memo without collecting), the lattice's add (crosscheck), series products
# and symbol substitution (identities). Slices are mostly under a
# millisecond, and the wrappers cost about 1% of a pass.
MARKED = (
    ("pcgroup.Collector.collect", 32),
    ("pcgroup.PcGroup.commutator", 32),
    ("intlinalg.LatticeBasis.add", 4),
    ("freenil.TruncatedSeries.__mul__", 32),
    ("identities.substitute_ab", 1),
)


def peak_rss_kib() -> int:
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )


def setup_pass() -> dict:
    t0 = time.perf_counter()
    from schurlab.catalog import load_bundled

    entries = load_bundled()
    return {"setup_s": time.perf_counter() - t0, "groups": len(entries)}


def verify_pass(request: dict) -> tuple[object, str | None]:
    from schurlab.verifier import RunConfig, run

    config = RunConfig(
        catalog_paths=(request["catalog"],), include_bundled=False, jobs=request["jobs"]
    )
    try:
        return run(config).render("json"), None
    except Exception as exc:  # one bad group fails the whole run today
        return None, f"{type(exc).__name__}: {exc}"


def identities_pass(request: dict) -> tuple[object, str | None]:
    from schurlab.identities import verify_collection_lemma

    lines = []
    for lemma_id in request["lemmas"]:
        try:
            report = verify_collection_lemma(lemma_id)
        except Exception as exc:  # a raising lemma fails that item only
            lines.append(f"{lemma_id}: raised {type(exc).__name__}: {exc}")
            continue
        # the line format of ``schurlab identities``
        line = f"{lemma_id}: {'pass' if report.passed else 'FAIL'} ({report.detail})"
        if not report.passed:
            line += f" counterexample: {report.counterexample}"
        lines.append(line)
    return lines, None


def main() -> None:
    request = json.loads(sys.argv[1])
    sys.path.insert(0, request["src"])
    if request["mode"] == "setup":
        print(json.dumps(setup_pass()))
        return

    import importlib

    import schurlab.catalog  # imported before the clock starts
    from tracer import Tracer

    tracer = Tracer("schurlab")
    stamps: list[float] = []
    if request["trace"]:
        from layers import instrument

        instrument(tracer)
        schurlab.catalog.load_bundled()
    else:
        from schurlab import identities, verifier

        tracer.mark(verifier, "record_for", 1, stamps)
        tracer.mark(identities, "verify_collection_lemma", 1, stamps)
        for name, every in MARKED:
            module, *path, attr = name.split(".")
            owner = importlib.import_module(f"schurlab.{module}")
            for part in path:
                owner = getattr(owner, part)
            tracer.mark(owner, attr, every, stamps)
    body = verify_pass if request["mode"] == "verify" else identities_pass
    t0 = time.perf_counter()
    output, error = body(request)
    wall = time.perf_counter() - t0
    result = {"wall_s": wall, "output": output, "error": error, "rss_kib": peak_rss_kib()}
    if not request["trace"]:
        result["marks"] = [t - t0 for t in stamps]
    else:
        from layers import trace_summary

        result["trace"] = trace_summary(tracer)
    tracer.uninstall()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
