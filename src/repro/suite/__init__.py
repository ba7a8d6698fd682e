"""Benchmark DFGs: the paper's five filters plus synthetic generators."""

from repro._exports import export as _export

__all__ = _export(__name__, {
    ".diffeq": "diffeq",
    ".elliptic": "elliptic",
    ".lattice": "lattice",
    ".allpole": "allpole",
    ".biquad": "biquad",
    ".registry": (
        "BENCHMARKS PAPER_TIMING UNIT_TIMING BenchmarkInfo all_benchmarks data_path "
        "get_benchmark load_benchmark_json"
    ),
    ".random_graphs": (
        "GENERATORS attach_affine_funcs build_case_graph generator_grid random_chain_loop "
        "random_dfg random_dsp_kernel rebuild_funcs unfolded_dfg"
    ),
})
