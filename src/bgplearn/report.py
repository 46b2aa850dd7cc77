"""Static report emitter: per-run pattern tables and precision-coverage grids."""

from __future__ import annotations

import dataclasses
import html
import json

from .fitness import CoverageLedger, FitnessTuple


def _grid(pv: list[float]) -> str:
    cells = []
    for i, p in enumerate(pv):
        shade = int(round(255 * (1.0 - p)))
        cells.append(
            '<span class="cell" data-pair="%d" data-pv="%s" '
            'style="background:rgb(%d,%d,255)"></span>'
            % (i, json.dumps(p), shade, shade))
    return '<div class="grid">%s</div>' % "".join(cells)


_STYLE = """
body { font-family: sans-serif; margin: 2em; }
.grid { line-height: 0; margin: .5em 0; }
.cell { display: inline-block; width: 12px; height: 12px;
        margin: 1px; border: 1px solid #999; }
table { border-collapse: collapse; margin: 1em 0; }
td, th { border: 1px solid #ccc; padding: 2px 8px; font-size: 12px; }
pre { background: #f5f5f5; padding: .5em; }
"""

_FITNESS_COLS = [f.name for f in dataclasses.fields(FitnessTuple)]


def build_report(run_docs: list[dict], gt_pairs: list[tuple[str, str]]
                 ) -> tuple[str, dict]:
    """Returns (html_text, json_doc); grid data attributes mirror the JSON values.
    ValueError for a precision outside [0, 1] or a vector not len(gt_pairs) long."""
    n_pairs = len(gt_pairs)
    all_pvs: list[tuple[float, ...]] = []
    sections = []
    for doc in run_docs:
        rows = []
        for pat in doc.get("accepted", []):
            ft = pat["fitness"]
            cells = "".join("<td>%s</td>" % html.escape(json.dumps(ft[c]))
                            for c in _FITNESS_COLS)
            all_pvs.append(CoverageLedger(pat["pv"]).values)
            rows.append(
                "<tr><td><pre>%s</pre></td>%s</tr><tr><td colspan=%d>%s</td></tr>"
                % (html.escape(pat["sparql"]), cells, len(_FITNESS_COLS) + 1,
                   _grid(pat["pv"])))
        body = ("<table><tr><th>SPARQL</th>%s</tr>%s</table>"
                % ("".join("<th>%s</th>" % c for c in _FITNESS_COLS), "".join(rows))
                if rows else "<p>No patterns accepted in this run.</p>")
        sections.append("<h2>Run %d</h2><p>remains %s &rarr; %s</p>%s"
                        % (doc["run_index"], json.dumps(doc["remains_before"]),
                           json.dumps(doc["remains_after"]), body))
    acc = list(CoverageLedger.zeros(n_pairs).updated(all_pvs).values)
    acc_html = ("<h2>Accumulated coverage</h2>%s" % _grid(acc)) if n_pairs else ""
    empty_note = "" if all_pvs else "<p><strong>No patterns were learned.</strong></p>"
    page = ("<!DOCTYPE html><html><head><meta charset='utf-8'>"
            "<title>Pattern learner report</title><style>%s</style></head><body>"
            "<h1>Learned graph patterns</h1>%s%s%s</body></html>"
            % (_STYLE, empty_note, "".join(sections), acc_html))
    json_doc = {
        "ground_truth": [list(p) for p in gt_pairs],
        "runs": run_docs,
        "accumulated_pv": acc,
    }
    return page, json_doc
