"""Reporting: paper-style tables, ASCII Gantt charts, CSV/JSON/Markdown."""

from repro._exports import export as _export

__all__ = _export(__name__, {
    ".tables": "render_results_table render_schedule render_table1",
    ".gantt": "gantt pipeline_gantt retiming_stages",
    ".svg": "pipeline_svg save_svg schedule_svg",
    ".convergence": (
        "ConvergenceCurve RecordingTracker convergence_svg heuristic_sweep phase_size_sweep"
    ),
    ".export": "schedule_records to_csv to_json_records to_markdown write_text",
})
