"""Self-contained campaign report artifacts (HTML + markdown).

:func:`write_campaign_report` turns a finished
:class:`~repro.harness.campaign.CampaignReport` plus an optional final
metrics snapshot into a single-file HTML report (inline CSS/JS, no CDN
or network fetches — it must render from a CI artifact tarball or an
air-gapped machine) and a markdown twin for terminals and PR comments.

The metrics snapshot arrives as parsed Prometheus families (the output
of :func:`repro.obs.metrics.parse_prom_text`), so the same code path
serves both a live registry (``families_from_registry``) and a
``--metrics-prom`` file scraped from ``/v1/metrics`` hours earlier.
Everything metric-derived degrades gracefully: a report built from a
journal alone simply notes which sections lack telemetry.
"""

from __future__ import annotations

import html
from typing import TYPE_CHECKING

from ..obs.metrics import MetricsRegistry, parse_prom_text, render_prom
from .reporting import campaign_overhead_rows

if TYPE_CHECKING:
    from .campaign import CampaignReport

#: Verdict display order for the per-cell table.
_VERDICTS = ("masked", "recovered", "sdc", "due_hang", "due_crash",
             "infra_error")

_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 72rem; color: #1b1f24;
       line-height: 1.45; padding: 0 1rem; }
h1 { font-size: 1.5rem; border-bottom: 2px solid #d0d7de;
     padding-bottom: .4rem; }
h2 { font-size: 1.15rem; margin-top: 2rem; }
table { border-collapse: collapse; margin: .75rem 0; font-size: .85rem;
        width: 100%; }
th, td { border: 1px solid #d0d7de; padding: .3rem .55rem;
         text-align: left; white-space: nowrap; }
th { background: #f6f8fa; cursor: pointer; user-select: none; }
tr:nth-child(even) td { background: #fafbfc; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
.bar { display: inline-block; height: .7rem; background: #0969da;
       vertical-align: middle; }
.bar.warn { background: #cf222e; }
.note { color: #57606a; font-size: .85rem; font-style: italic; }
.badge { display: inline-block; padding: .1rem .5rem;
         border-radius: 1rem; font-size: .8rem; color: #fff; }
.badge.ok { background: #1a7f37; }
.badge.bad { background: #cf222e; }
code { background: #f6f8fa; padding: .1rem .3rem; border-radius: 4px; }
""".strip()

# Tiny dependency-free click-to-sort: numeric when every cell parses.
_JS = """
document.querySelectorAll('th').forEach(function (th) {
  th.addEventListener('click', function () {
    var table = th.closest('table');
    var idx = Array.prototype.indexOf.call(th.parentNode.children, th);
    var rows = Array.prototype.slice.call(
      table.querySelectorAll('tbody tr'));
    var dir = th.dataset.dir === 'asc' ? -1 : 1;
    th.dataset.dir = dir === 1 ? 'asc' : 'desc';
    rows.sort(function (a, b) {
      var x = a.children[idx].textContent.trim();
      var y = b.children[idx].textContent.trim();
      var nx = parseFloat(x), ny = parseFloat(y);
      if (!isNaN(nx) && !isNaN(ny)) return (nx - ny) * dir;
      return x.localeCompare(y) * dir;
    });
    rows.forEach(function (r) { table.tBodies[0].appendChild(r); });
  });
});
""".strip()


def families_from_registry(registry: MetricsRegistry) -> dict:
    """Parsed-family view of a live registry (round-trips through the
    exposition text so file snapshots and live scrapes are identical)."""
    families, _ = parse_prom_text(render_prom(registry))
    return families


def load_prom_snapshot(path: str) -> dict:
    """Parse a ``--metrics-prom`` / ``/v1/metrics`` snapshot file."""
    with open(path, encoding="utf-8") as fh:
        families, _ = parse_prom_text(fh.read())
    return families


# ----------------------------------------------------------------------
# Data extraction (shared by HTML and markdown renderers)
# ----------------------------------------------------------------------

def _samples(families: dict | None, name: str) -> list:
    if not families or name not in families:
        return []
    return families[name]["samples"]


def _stall_rows(families: dict | None) -> list[dict]:
    """Per-(workload, scheme, site) stall-cause cycle counts from the
    ``repro_stall_cycles_total`` family (Fig. 13's comparative axis)."""
    rows: dict[tuple, dict] = {}
    for _, labels, value in _samples(families, "repro_stall_cycles_total"):
        key = (labels.get("workload", ""), labels.get("scheme", ""),
               labels.get("site", ""))
        rows.setdefault(key, {})
        cause = labels.get("cause", "?")
        rows[key][cause] = rows[key].get(cause, 0) + value
    out = []
    for (workload, scheme, site), causes in sorted(rows.items()):
        total = sum(causes.values())
        out.append({"workload": workload, "scheme": scheme, "site": site,
                    "causes": dict(sorted(causes.items())),
                    "total": total})
    return out


def _accel_counts(families: dict | None) -> dict[str, int]:
    out = {}
    for _, labels, value in _samples(families, "repro_trial_accel_total"):
        out[labels.get("kind", "?")] = int(value)
    return out


def _wall_time_stats(families: dict | None) -> list[dict]:
    """Per-(workload, scheme) wall-time count/sum/mean from the
    ``repro_trial_wall_seconds`` histogram."""
    acc: dict[tuple, dict] = {}
    for sample, labels, value in _samples(families,
                                          "repro_trial_wall_seconds"):
        key = (labels.get("workload", ""), labels.get("scheme", ""))
        entry = acc.setdefault(key, {"count": 0, "sum": 0.0})
        if sample.endswith("_count"):
            entry["count"] = int(value)
        elif sample.endswith("_sum"):
            entry["sum"] = value
    return [{"workload": w, "scheme": s, "count": e["count"],
             "sum": e["sum"],
             "mean": e["sum"] / e["count"] if e["count"] else 0.0}
            for (w, s), e in sorted(acc.items())]


def _summary(report: "CampaignReport") -> list[tuple[str, str]]:
    spec = report.spec
    total = sum(cell.trials for cell in report.cells)
    return [
        ("Status", "complete" if report.complete else "PARTIAL"),
        ("Trials recorded", str(total)),
        ("Cells", str(len(report.cells))),
        ("Workloads", ", ".join(spec.workloads)),
        ("Schemes", ", ".join(spec.schemes)),
        ("Fault sites", ", ".join(spec.sites)),
        ("Trials/cell", str(spec.trials)),
        ("Scale / GPU / scheduler",
         f"{spec.scale} / {spec.gpu} / {spec.scheduler}"),
        ("WCDL", str(spec.wcdl)),
        ("Seed", str(spec.seed)),
        ("Infra failures", str(report.infra_failures)),
        ("Journal", str(report.journal_path)),
    ]


def _cell_rows(report: "CampaignReport") -> list[dict]:
    from ..core.campaign import INFRA_ERROR, SDC

    rows = []
    for cell in report.cells:
        measured = cell.trials - cell.counts[INFRA_ERROR]
        rate, lo, hi = cell.rates[SDC]
        rows.append({
            "workload": cell.workload, "scheme": cell.scheme,
            "site": cell.site, "trials": cell.trials,
            "counts": {v: cell.counts.get(v, 0) for v in _VERDICTS},
            "sdc_ci": (f"{rate:.3f} [{lo:.3f}, {hi:.3f}]"
                       if measured else "n/a"),
            "unrecovered": cell.unrecovered,
        })
    return rows


# ----------------------------------------------------------------------
# Renderers
# ----------------------------------------------------------------------

def _h(value) -> str:
    return html.escape(str(value), quote=True)


def _html_table(headers: list[str], rows: list[list],
                numeric: set[int] = frozenset()) -> str:
    out = ["<table><thead><tr>"]
    out += [f"<th>{_h(h)}</th>" for h in headers]
    out.append("</tr></thead><tbody>")
    for row in rows:
        out.append("<tr>")
        for i, cell in enumerate(row):
            cls = ' class="num"' if i in numeric else ""
            out.append(f"<td{cls}>{cell if str(cell).startswith('<') else _h(cell)}</td>")
        out.append("</tr>")
    out.append("</tbody></table>")
    return "".join(out)


def _md_table(headers: list[str], rows: list[list]) -> str:
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(lines)


def _bar_html(fraction: float, warn: bool = False,
              scale_px: int = 120) -> str:
    width = max(1, int(round(max(0.0, min(fraction, 1.0)) * scale_px)))
    cls = "bar warn" if warn else "bar"
    return (f'<span class="{cls}" style="width:{width}px"></span> '
            f"{100.0 * fraction:.1f}%")


def _overhead_table_rows(report: "CampaignReport") -> list[list]:
    rows = []
    for row in campaign_overhead_rows(report):
        coverage = (f"{row['coverage']:.3f}"
                    if row["coverage"] is not None else "n/a")
        overhead = (f"{100.0 * row['overhead']:+.2f}%"
                    if row["overhead"] is not None else "n/a")
        rows.append([row["workload"], row["site"], row["scheme"],
                     coverage, overhead, row["sdc"], row["unrecovered"]])
    return rows


def render_campaign_html(report: "CampaignReport",
                         families: dict | None = None,
                         title: str = "") -> str:
    """The full self-contained HTML document as a string."""
    spec = report.spec
    title = title or (f"Fault-injection campaign report — "
                      f"{'/'.join(spec.workloads)} @ {spec.scale}")
    parts = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>{_h(title)}</title>",
        f"<style>{_CSS}</style></head><body>",
        f"<h1>{_h(title)}</h1>",
    ]
    badge = ('<span class="badge ok">complete</span>' if report.complete
             else '<span class="badge bad">partial</span>')
    parts.append(f"<p>{badge}</p>")

    parts.append("<h2>Campaign summary</h2>")
    parts.append(_html_table(
        ["Quantity", "Value"],
        [[k, v] for k, v in _summary(report)]))

    parts.append("<h2>Per-cell verdicts (Wilson 95% CI)</h2>")
    cell_rows = []
    for row in _cell_rows(report):
        c = row["counts"]
        cell_rows.append([
            row["workload"], row["scheme"], row["site"], row["trials"],
            c["masked"], c["recovered"], c["sdc"], c["due_hang"],
            c["due_crash"], c["infra_error"], row["sdc_ci"],
            _bar_html(row["unrecovered"] / row["trials"]
                      if row["trials"] else 0.0,
                      warn=row["unrecovered"] > 0),
        ])
    parts.append(_html_table(
        ["Workload", "Scheme", "Site", "Trials", "Masked", "Recovered",
         "SDC", "DUE-hang", "DUE-crash", "Infra", "SDC rate [95% CI]",
         "Unrecovered"],
        cell_rows, numeric={3, 4, 5, 6, 7, 8, 9}))

    parts.append("<h2>Coverage vs overhead per fault site</h2>")
    overhead_rows = _overhead_table_rows(report)
    if overhead_rows:
        parts.append(_html_table(
            ["Workload", "Site", "Scheme", "Coverage", "Overhead",
             "SDC", "Unrecovered"],
            overhead_rows, numeric={5, 6}))
        parts.append('<p class="note">Coverage = fraction of measured '
                     "trials whose output stayed bit-exact; overhead = "
                     "fault-free cycles vs the baseline scheme on the "
                     "same workload (the paper&#8217;s Flame-vs-"
                     "duplication axis).</p>")
    else:
        parts.append('<p class="note">Unavailable: no golden cycle '
                     "counts in the journal (or no baseline scheme in "
                     "the campaign).</p>")

    parts.append("<h2>Stall-cause breakdown (Fig. 13 accounting)</h2>")
    stalls = _stall_rows(families)
    if stalls:
        causes = sorted({c for row in stalls for c in row["causes"]})
        stall_rows = []
        for row in stalls:
            cells = [row["workload"], row["scheme"], row["site"]]
            for cause in causes:
                cycles = row["causes"].get(cause, 0)
                share = cycles / row["total"] if row["total"] else 0.0
                cells.append(f"{int(cycles)} ({100.0 * share:.1f}%)")
            cells.append(int(row["total"]))
            stall_rows.append(cells)
        parts.append(_html_table(
            ["Workload", "Scheme", "Site"] + causes + ["Total"],
            stall_rows, numeric={len(causes) + 3}))
    else:
        parts.append('<p class="note">Unavailable: no metrics snapshot '
                     "was supplied (run the campaign with "
                     "<code>--metrics-prom</code> or scrape "
                     "<code>/v1/metrics</code>, then pass the file to "
                     "the report command). Journals stay telemetry-free "
                     "by design so they remain byte-deterministic.</p>")

    accel = _accel_counts(families)
    walls = _wall_time_stats(families)
    parts.append("<h2>Trial acceleration &amp; wall time</h2>")
    if accel:
        parts.append(_html_table(
            ["Acceleration", "Trials"],
            [[kind, count] for kind, count in sorted(accel.items())],
            numeric={1}))
    if walls:
        parts.append(_html_table(
            ["Workload", "Scheme", "Trials", "Wall time (s)",
             "Mean (s)"],
            [[w["workload"], w["scheme"], w["count"],
              f"{w['sum']:.2f}", f"{w['mean']:.3f}"] for w in walls],
            numeric={2, 3, 4}))
    if not accel and not walls:
        parts.append('<p class="note">Unavailable without a metrics '
                     "snapshot.</p>")

    parts.append('<p class="note">Self-contained report: inline CSS/JS '
                 "only, no external requests. Click a column header to "
                 "sort.</p>")
    parts.append(f"<script>{_JS}</script>")
    parts.append("</body></html>")
    return "\n".join(parts)


def render_campaign_markdown(report: "CampaignReport",
                             families: dict | None = None) -> str:
    spec = report.spec
    lines = [f"# Fault-injection campaign report — "
             f"{'/'.join(spec.workloads)} @ {spec.scale}", ""]
    lines.append("**Status:** "
                 + ("complete" if report.complete else "PARTIAL"))
    lines += ["", "## Campaign summary", "",
              _md_table(["Quantity", "Value"],
                        [[k, v] for k, v in _summary(report)])]

    lines += ["", "## Per-cell verdicts (Wilson 95% CI)", ""]
    rows = []
    for row in _cell_rows(report):
        c = row["counts"]
        rows.append([row["workload"], row["scheme"], row["site"],
                     row["trials"], c["masked"], c["recovered"],
                     c["sdc"], c["due_hang"], c["due_crash"],
                     c["infra_error"], row["sdc_ci"],
                     row["unrecovered"]])
    lines.append(_md_table(
        ["Workload", "Scheme", "Site", "Trials", "Masked", "Recovered",
         "SDC", "DUE-hang", "DUE-crash", "Infra", "SDC rate [95% CI]",
         "Unrecovered"], rows))

    overhead_rows = _overhead_table_rows(report)
    lines += ["", "## Coverage vs overhead per fault site", ""]
    if overhead_rows:
        lines.append(_md_table(
            ["Workload", "Site", "Scheme", "Coverage", "Overhead",
             "SDC", "Unrecovered"], overhead_rows))
    else:
        lines.append("*Unavailable: no golden cycle counts or no "
                     "baseline scheme.*")

    stalls = _stall_rows(families)
    lines += ["", "## Stall-cause breakdown (Fig. 13 accounting)", ""]
    if stalls:
        causes = sorted({c for row in stalls for c in row["causes"]})
        rows = []
        for row in stalls:
            cells = [row["workload"], row["scheme"], row["site"]]
            for cause in causes:
                cycles = row["causes"].get(cause, 0)
                share = cycles / row["total"] if row["total"] else 0.0
                cells.append(f"{int(cycles)} ({100.0 * share:.1f}%)")
            cells.append(int(row["total"]))
            rows.append(cells)
        lines.append(_md_table(
            ["Workload", "Scheme", "Site"] + causes + ["Total"], rows))
    else:
        lines.append("*Unavailable: no metrics snapshot supplied "
                     "(`--metrics-prom` / `/v1/metrics` scrape).*")

    accel = _accel_counts(families)
    if accel:
        lines += ["", "## Trial acceleration", "",
                  _md_table(["Acceleration", "Trials"],
                            [[k, v] for k, v in sorted(accel.items())])]
    return "\n".join(lines) + "\n"


def write_campaign_report(report: "CampaignReport", html_path: str,
                          md_path: str | None = None,
                          families: dict | None = None,
                          registry: MetricsRegistry | None = None
                          ) -> list[str]:
    """Write the HTML (and optional markdown) artifacts; returns the
    list of paths written.  ``registry`` is a convenience alternative to
    pre-parsed ``families``."""
    if families is None and registry is not None:
        families = families_from_registry(registry)
    written = []
    with open(html_path, "w", encoding="utf-8") as fh:
        fh.write(render_campaign_html(report, families))
    written.append(html_path)
    if md_path:
        with open(md_path, "w", encoding="utf-8") as fh:
            fh.write(render_campaign_markdown(report, families))
        written.append(md_path)
    return written


def report_from_journal(journal_path: str) -> "CampaignReport":
    """Rebuild a :class:`CampaignReport` from a merged journal alone —
    the spec rides in the journal header, so the standalone ``report``
    command needs no other inputs."""
    from ..core.campaign import CampaignJournal
    from .campaign import CampaignReport

    journal = CampaignJournal(journal_path)
    spec = journal.load_spec()
    return CampaignReport(spec, journal.load(spec), journal_path)


__all__ = ["families_from_registry", "load_prom_snapshot",
           "render_campaign_html", "render_campaign_markdown",
           "report_from_journal", "write_campaign_report"]
