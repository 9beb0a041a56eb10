"""Plain-text rendering of tables and figures.

The experiment harness regenerates every table and figure of the paper;
these helpers render them as ASCII so results are inspectable in a
terminal and comparable in golden-output tests.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".figures": ("ascii_histogram", "ascii_scatter", "ascii_series",
                 "render_box_rows"),
    ".report": ("render_results", "save_results"),
    ".tables": ("ascii_table", "format_float"),
})
