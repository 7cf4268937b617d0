"""Names, units and directions of every metric the benchmark prints."""

# Every workload reports each of these.  The two timed ones are costs in
# "ref", multiples of the CPU time of the reference loop read next to
# the work (see worker.py), so that the host's changing core speed
# cancels.  cost_per_image is the timed work per image: corpus images
# through the four CLI stages on the experiment, parse + verify of one
# image on the others; each stage or image counts with its median over
# the passes.  verify_p90_cost is the 90th percentile of the cost of
# parse + verify over every timed image; on the experiment, of the cost
# of each verify call that evaluate makes.
END_TO_END = (
    ("setup_s", "s"),
    ("cost_per_image", "ref"),
    ("verify_p90_cost", "ref"),
    ("peak_rss_mb", "MB"),
    ("context_accuracy", "fraction"),
    ("context_balanced_accuracy", "fraction"),
)
# Printed, not bounded: the same work on the wall clock, which follows
# the host's state; the reference loop's own time, which shows
# that state; and the median latency, which falls between the one-object
# and the multi-object modes of the latency distribution, so it jumps
# with the seed's scene mix.
REPORTED = (
    ("images_per_s", "images/s"),
    ("verify_p50_ms", "ms"),
    ("verify_p90_ms", "ms"),
    ("pass_s", "s"),
    ("reference_ms", "ms"),
)
STAGE_METRICS = (
    ("synth_s", "s"),
    ("select_s", "s"),
    ("train_s", "s"),
    ("evaluate_s", "s"),
    ("global_accuracy", "fraction"),
)

# (metric, unit, better).  `calls` and `self_s` come from the spans; the
# rest from the counters kept at the same call boundaries.
LAYER_METRICS = (
    ("labelgrid.parse_label_grid.calls", "count", "lower"),
    ("labelgrid.parse_label_grid.self_s", "s", "lower"),
    ("labelgrid.parse_label_grid.cells", "count", "lower"),
    ("labelgrid.extract_objects.calls", "count", "lower"),
    ("labelgrid.extract_objects.self_s", "s", "lower"),
    ("labelgrid.extract_objects.objects", "count", "lower"),
    ("labelgrid.extract_objects.repeat_share", "fraction", "lower"),
    ("relations.relations_for_objects.calls", "count", "lower"),
    ("relations.relations_for_objects.self_s", "s", "lower"),
    ("relations.relations_for_objects.pairs", "count", "lower"),
    ("relations.shape_histogram.calls", "count", "lower"),
    ("relations.shape_histogram.self_s", "s", "lower"),
    ("verifier.featurize.calls", "count", "lower"),
    ("verifier.featurize.self_s", "s", "lower"),
    ("verifier.score.calls", "count", "lower"),
    ("verifier.score.self_s", "s", "lower"),
    ("verifier.verify.calls", "count", "lower"),
    ("verifier.verify.self_s", "s", "lower"),
    ("verifier.verify.context_share", "fraction", "higher"),
    ("verifier.aggregate.calls", "count", "lower"),
    ("verifier.aggregate.abstain_share", "fraction", "lower"),
    ("verifier.train_linear.calls", "count", "lower"),
    ("verifier.train_linear.self_s", "s", "lower"),
    ("verifier.train_linear.sgd_steps", "count", "lower"),
    ("stats.accumulate.calls", "count", "lower"),
    ("stats.accumulate.self_s", "s", "lower"),
    ("stats.accumulate.relations", "count", "lower"),
    ("stats.finalize.calls", "count", "lower"),
    ("stats.finalize.self_s", "s", "lower"),
    ("context.score_attributes.calls", "count", "lower"),
    ("context.score_attributes.self_s", "s", "lower"),
    ("corpus.generate_contradiction.calls", "count", "lower"),
    ("corpus.generate_contradiction.self_s", "s", "lower"),
    ("corpus.generate_contradiction.failed", "count", "lower"),
    ("corpus.Corpus.grid.calls", "count", "lower"),
    ("corpus.Corpus.grid.self_s", "s", "lower"),
    ("corpus.synth_corpus.self_s", "s", "lower"),
    ("corpus.save_model.self_s", "s", "lower"),
    ("corpus.save_model.bytes", "bytes", "lower"),
    ("corpus.load_model.self_s", "s", "lower"),
    ("corpus.load_model.bytes", "bytes", "lower"),
    ("cli.stages.self_s", "s", "lower"),
    ("trace.labelgrid_share", "fraction", "lower"),
    ("trace.pair_share", "fraction", "lower"),
    ("trace.overhead_share", "fraction", "lower"),
)
