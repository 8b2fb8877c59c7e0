#!/usr/bin/env python3
"""Generate EXPERIMENTS.md from benchmarks/results.json.

Loops over the declarations: one section per section of
:data:`repro.harness.experiments.EXPERIMENTS`, holding the paper's
claims about its experiments (:data:`repro.harness.claims.CLAIMS`)
with their verdicts and measured quantities, then each experiment's
table; a verdict table of every claim comes first. Claims are judged
by their own predicates on the committed results — nothing simulates.
The benchmark suite writes the results and asserts the same verdicts::

    PYTHONPATH=src python -m pytest benchmarks/ -q
    PYTHONPATH=src python tools/generate_experiments.py
"""

import json
import pathlib

from repro.harness.claims import (CLAIMS, GROUPS, extra_units, mean, pct,
                                  peak)
from repro.harness.experiments import EXPERIMENTS

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = ROOT / "benchmarks" / "results.json"
OUTPUT = ROOT / "EXPERIMENTS.md"

HEADER = """\
# EXPERIMENTS — paper vs measured

Every table and figure of the paper's evaluation, regenerated by
`python -m pytest benchmarks/`, which simulates every declared
experiment, writes `benchmarks/results.json` and judges each of the
paper's claims below against its declared verdict. The paper's own
absolute numbers are mostly lost to OCR, and our substrate is a scaled
simulator, so the comparison is of *shapes*: orderings, rough factors,
crossovers. Every run's computation is verified against an independent
Python mirror before its cycle count is used. Where the reproduction
holds a tolerance band around a claim it does not match exactly, the
band and the paper's exact claim are listed separately.
"""


def table(headers, rows):
    out = ["| " + " | ".join(headers) + " |",
           "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        out.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(out)


def fmt(value):
    if isinstance(value, float):
        return f"{value:,.0f}"
    return f"{value:,}"


def _gain(multi, single):
    """Speedup of column ``multi`` over column ``single``."""
    return lambda row: pct(row[single] / row[multi] - 1)


def _peak(row):
    gain, best = peak(row)
    return f"{pct(gain)} @ {best}"


#: Derived columns per experiment: ``(header, f(row) -> text)``, where
#: a row maps the experiment's column labels to cycles.
DERIVED = {
    "fetch": [("TrueRR speedup", _gain("TrueRR", "BaseCase"))],
    "threads": [("peak", _peak)],
    "fu": [("MT gain", _gain("4T/default", "1T/default")),
           ("MT gain ++", _gain("4T/enhanced", "1T/enhanced"))],
    "commit": [("flexible gain", _gain("Multiple", "Lowest"))],
    "icount": [("ICOUNT gain", _gain("icount", "true_rr"))],
    "alignment": [("aligned gain", _gain("aligned", "plain"))],
}


def experiment_table(results, name, field="cycles", cell=fmt):
    """One row per workload, then each whole group's mean and, for
    cycles, the total; one column per label plus :data:`DERIVED`."""
    columns = results[name]
    workloads = list(next(iter(columns.values())))
    rows = {w: {label: column[w][field] for label, column in columns.items()}
            for w in workloads}
    for group, names in GROUPS.items():
        if set(names) <= set(workloads):
            rows[f"{group} mean"] = {
                label: mean(results, name, label, names, field)
                for label in columns}
    derived = []
    if field == "cycles":
        rows["total"] = {label: sum(rows[w][label] for w in workloads)
                         for label in columns}
        derived = DERIVED.get(name, [])
    return table(["benchmark", *columns, *(header for header, _ in derived)],
                 [[key, *map(cell, row.values()),
                   *(derive(row) for _, derive in derived)]
                  for key, row in rows.items()])


def usage_table(results):
    """Group means of each extra unit's busy fraction (Table 3), for
    every ``fu`` column that has extra units."""
    usage = {f"{group} {label}": extra_units(results, names, label)
             for label, column in results["fu"].items()
             if any(point["extra_fu_usage"] for point in column.values())
             for group, names in GROUPS.items()}
    units = next(iter(usage.values()))
    return table(["extra unit", *usage],
                 [[f"{cls} #{index + 2}",
                   *(f"{means[cls][index]:.1%}" for means in usage.values())]
                  for cls in sorted(units)
                  for index in range(len(units[cls]))])


#: Tables beyond cycles: experiment -> ``(what, render(results))``.
EXTRA_TABLES = {
    "cache": ("average data-cache hit rates (Table 2)",
              lambda r: experiment_table(r, "cache", "hit_rate",
                                         "{:.1%}".format)),
    "fu": ("fraction of cycles each extra unit of the enhanced "
           "configuration is busy (Table 3)",
           usage_table),
}


def build(results):
    """Assemble the markdown from a results document; an experiment
    missing from it is noted, and the claims that read it skipped."""
    judged = {claim.name: claim.predicate(results) for claim in CLAIMS
              if all(name in results for name in claim.experiments)}
    verdicts = [[f"`{claim.name}`", claim.figure,
                 claim.verdict if claim.diverges is None
                 else f"**diverges**: {claim.diverges}"]
                for claim in CLAIMS if claim.name in judged]
    parts = [HEADER, "## Verdicts", "",
             table(["claim", "figure", "verdict"], verdicts), ""]
    sections = {}
    for name, experiment in EXPERIMENTS.items():
        sections.setdefault(experiment.section, []).append(name)
    for section, names in sections.items():
        parts += [f"## {section[0].upper()}{section[1:]}", ""]
        for claim in CLAIMS:
            if claim.name in judged and claim.experiments[0] in names:
                parts.append(f"- `{claim.name}` ({claim.figure}, "
                             f"{claim.verdict}) — {claim.paper}. "
                             f"Measured: {judged[claim.name][1]}.")
        parts.append("")
        for name in names:
            if name not in results:
                parts += [f"*(experiment `{name}` not in results.json — "
                          f"run the benchmark suite)*", ""]
                continue
            parts += [f"**Measured — `{name}`, cycles:**", "",
                      experiment_table(results, name), ""]
            if name in EXTRA_TABLES:
                what, render = EXTRA_TABLES[name]
                parts += [f"**Measured — `{name}`, {what}:**", "",
                          render(results), ""]
    return "\n".join(parts)


def main():
    results = json.loads(RESULTS.read_text())
    OUTPUT.write_text(build(results))
    print(f"wrote {OUTPUT}")


if __name__ == "__main__":
    main()
