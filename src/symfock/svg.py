"""Hand-emitted SVG bar charts; diagnostic output, no plotting dependency."""

from __future__ import annotations

CLASS_COLORS = {
    "I": "#9aa0a6",
    "II": "#e8a33d",
    "III": "#d23f31",
    "IV": "#3c78d8",
    "": "#3c78d8",
}

#: Figure rank by class code (IV, I, II, III): the suppressed classes first,
#: transmitted events last.
_RANKS = (3, 0, 1, 2)

_WIDTH, _HEIGHT = 900, 320
_MARGIN_LEFT, _MARGIN_BOTTOM, _MARGIN_TOP = 50, 30, 30


def _escape(text: str) -> str:
    """XML text escaping, the bytes of ``xml.sax.saxutils.escape`` without
    its import (which loads ``urllib.request``, ``http.client`` and ``ssl``)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def bar_chart(values, classes=None, title: str = "") -> str:
    """One rect per value, colored by event class, tallest bar at full height.

    Returns the SVG document as a string; the number of ``class="bar"``
    rects always equals ``len(values)``.
    """
    values = [float(v) for v in values]
    classes = list(classes) if classes is not None else [""] * len(values)
    if len(classes) != len(values):
        raise ValueError("need one class label per value")
    top = max(values, default=0.0)
    scale = (_HEIGHT - _MARGIN_BOTTOM - _MARGIN_TOP) / top if top > 0 else 0.0
    plot_width = _WIDTH - _MARGIN_LEFT - 10
    slot = plot_width / max(len(values), 1)
    bar_width = max(slot * 0.8, 0.5)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<text x="{_MARGIN_LEFT}" y="18" font-size="13" font-family="sans-serif">'
        f"{_escape(title)}</text>",
        f'<line x1="{_MARGIN_LEFT}" y1="{_HEIGHT - _MARGIN_BOTTOM}" x2="{_WIDTH - 10}" '
        f'y2="{_HEIGHT - _MARGIN_BOTTOM}" stroke="#444" stroke-width="1"/>',
        f'<line x1="{_MARGIN_LEFT}" y1="{_MARGIN_TOP}" x2="{_MARGIN_LEFT}" '
        f'y2="{_HEIGHT - _MARGIN_BOTTOM}" stroke="#444" stroke-width="1"/>',
        f'<text x="4" y="{_MARGIN_TOP + 8}" font-size="11" font-family="sans-serif">'
        f"{top:.3g}</text>",
    ]
    baseline = _HEIGHT - _MARGIN_BOTTOM
    for i, (value, label) in enumerate(zip(values, classes)):
        height = value * scale
        x = _MARGIN_LEFT + i * slot + (slot - bar_width) / 2
        color = CLASS_COLORS.get(label, CLASS_COLORS[""])
        parts.append(
            f'<rect class="bar" x="{x:.2f}" y="{baseline - height:.2f}" '
            f'width="{bar_width:.2f}" height="{height:.2f}" fill="{color}"/>'
        )
    legend_x = _WIDTH - 220
    for i, (label, color) in enumerate(c for c in CLASS_COLORS.items() if c[0]):
        parts.append(
            f'<rect x="{legend_x + i * 52}" y="8" width="10" height="10" fill="{color}"/>'
            f'<text x="{legend_x + 14 + i * 52}" y="17" font-size="11" '
            f'font-family="sans-serif">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def figure_order(table):
    """Display order for the rows of a verdict table: classes I, II, III
    first, in row order, then the transmitted events by increasing
    probability."""
    ranks = [_RANKS[code] for code in table.codes.tolist()]
    probs = table.p.tolist()
    return sorted(range(len(ranks)), key=lambda i: (ranks[i], probs[i] if ranks[i] == 3 else i))


def write_verdict_svg(path, table, title: str = "") -> None:
    order = figure_order(table)
    probs, classes = table.p.tolist(), table.classes.tolist()
    chart = bar_chart([probs[i] for i in order], [classes[i].value for i in order], title)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(chart)
        fh.write("\n")
