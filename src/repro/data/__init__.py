"""Dataset containers and loaders.

The paper's pipeline consumes a labeled collection of per-drive SMART
profiles; :class:`DiskDataset` is that collection, with the dataset-wide
Eq. (1) normalization, constant-attribute filtering and CSV round-trips
the analysis needs.  A loader for the public Backblaze drive-stats CSV
format is included so the pipeline can run on real telemetry as well as
on the simulator's output.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".backblaze": ("BACKBLAZE_COLUMN_MAP", "load_backblaze_csv",
                   "save_backblaze_csv"),
    ".cache": ("CachedDataset", "DatasetCache", "default_cache_dir"),
    ".dataset": ("DatasetSummary", "DiskDataset"),
    ".loader": ("load_csv", "load_csv_resilient", "save_csv"),
    ".sanitize": ("RawProfile", "SanitizationResult", "SanitizePolicy",
                  "sanitize_profiles"),
    ".splits": ("train_test_split",),
    ".windows": ("truncate_to_policy",),
})
