//! The metrics, by name: what `BENCHMARK.json` lists and every report
//! prints. A crate test holds the two to each other.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the reference median the metric may worsen by.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 20;

/// The widest bound ISSUE 11 lets a metric carry. One that cannot hold it
/// between two `--aa` sets is not given a wider one: it goes to the
/// per-layer list ([`UNRESOLVED`]).
pub const WIDEST_BOUND: f64 = 0.15;

/// End-to-end metrics the regression gate bounds; `BENCHMARK.json` lists
/// these and every workload reports them. `setup_s` is the one bound above
/// [`WIDEST_BOUND`]: as measured it does not hold 15% on the builder's host
/// either (`--aa` runs put `mixed_write`'s 21% and 43% apart), but the gate's
/// contract wants it among these, with the largest bound of all, so it cannot
/// move; it is scaled to the host's speed instead (`world::host_probe`).
pub const END_TO_END: [EndToEnd; 3] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("slo_ok_share", "share", Better::Higher, 0.05),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.10),
];

/// An end-to-end metric of the issue that carries no bound, and the
/// per-layer name the gate sees it under.
#[derive(Debug, Clone, Copy)]
pub struct Unresolved {
    pub name: &'static str,
    pub per_layer: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn unresolved(
    name: &'static str,
    per_layer: &'static str,
    unit: &'static str,
    better: Better,
) -> Unresolved {
    Unresolved {
        name,
        per_layer,
        unit,
        better,
    }
}

/// The issue's latency and throughput metrics. On the 2-vCPU shared host
/// this was built on, ten-seed series put the quartiles of each 7–37% of
/// the median apart, and the two sets of one `--aa` run differed by 6–18%
/// when the host held its speed and by up to 41% when it did not (see the
/// README's noise section). None holds [`WIDEST_BOUND`], so a difference in
/// them between two commits is unresolved unless paired runs show it. Every
/// run measures them; the suite prints the rounds' median and `--aa` their
/// difference, without a verdict. The `mutate_*` three exist only on
/// `mixed_write`: `null` in the suite and 0 in the per-layer list elsewhere.
pub const UNRESOLVED: [Unresolved; 6] = [
    unresolved("query_p50_ms", "loadgen.query_p50_ms", "ms", Better::Lower),
    unresolved("query_p95_ms", "loadgen.query_p95_ms", "ms", Better::Lower),
    unresolved("query_per_s", "loadgen.query_per_s", "1/s", Better::Higher),
    unresolved(
        "mutate_p50_ms",
        "loadgen.mutate_p50_ms",
        "ms",
        Better::Lower,
    ),
    unresolved(
        "mutate_p95_ms",
        "loadgen.mutate_p95_ms",
        "ms",
        Better::Lower,
    ),
    unresolved(
        "mutate_per_s",
        "loadgen.mutate_per_s",
        "1/s",
        Better::Higher,
    ),
];

/// `fail_share` may rise by this much, absolute. It is 0 on a correct
/// server, so it cannot carry a relative bound: the gate sees it as the
/// run's `failed` count over `attempted`.
pub const FAIL_SHARE: &str = "fail_share";
pub const FAIL_SHARE_BOUND: f64 = 0.001;

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Per-layer metrics of the traced run, layer = crate. Timings are the
/// median over the traced requests unless the name says otherwise.
pub const PER_LAYER: [PerLayer; 60] = [
    // server: HTTP as the client sees it.
    lower("server.http.connect_us", "us"),
    lower("server.http.ttfb_us", "us"),
    lower("server.http.read_body_us", "us"),
    lower("server.unattributed_us", "us"),
    // server: api, sched, mutate.
    lower("server.parse_us", "us"),
    lower("server.render_us", "us"),
    lower("server.render_bytes", "bytes"),
    lower("server.queue_wait_mean_us", "us"),
    lower("server.service_mean_us", "us"),
    higher("server.coalesce_hit_rate", "share"),
    lower("server.shed_total", "count"),
    lower("server.reordered_total", "count"),
    lower("server.cost_ratio", "ratio"),
    lower("server.mutate_parse_us", "us"),
    lower("server.mutate_apply_ms_small", "ms"),
    lower("server.mutate_apply_ms_large", "ms"),
    lower("server.mutate_apply_size_ratio", "ratio"),
    // core.
    lower("core.predict_cost_us", "us"),
    lower("core.schema_gen_us", "us"),
    lower("core.db_gen_us.naive", "us"),
    lower("core.db_gen_us.roundrobin", "us"),
    higher("core.db_gen_tuples_per_s", "1/s"),
    lower("core.answer_us", "us"),
    higher("core.result_tuples_per_query", "count"),
    higher("core.token_cache_hit_rate", "share"),
    higher("core.schema_cache_hit_rate", "share"),
    lower("core.engine_clone_ms", "ms"),
    // index.
    lower("index.lookup_us", "us"),
    lower("index.tids_per_token", "count"),
    lower("index.build_ms", "ms"),
    // storage.
    lower("storage.index_probes_per_query", "count"),
    lower("storage.tuple_reads_per_query", "count"),
    lower("storage.tuple_reads_per_result_tuple", "ratio"),
    // nlg.
    lower("nlg.translate_us", "us"),
    lower("nlg.us_per_tuple_50", "us"),
    lower("nlg.us_per_tuple_200", "us"),
    lower("nlg.narrative_bytes", "bytes"),
    // durability.
    lower("durability.wal_append_us", "us"),
    lower("durability.flush_ms", "ms"),
    lower("durability.fsyncs_per_batch", "count"),
    lower("durability.wal_bytes_per_user_byte", "ratio"),
    lower("durability.checkpoint_ms", "ms"),
    lower("durability.recover_ms", "ms"),
    higher("durability.recovered_ops", "count"),
    lower("durability.acked_lost", "count"),
    // datagen and the load generator itself.
    lower("datagen.generate_ms", "ms"),
    lower("loadgen.late_p95_ms", "ms"),
    lower("loadgen.query_p50_ms", "ms"),
    lower("loadgen.query_p95_ms", "ms"),
    lower("loadgen.query_p99_ms", "ms"),
    higher("loadgen.query_per_s", "1/s"),
    higher("loadgen.sent", "count"),
    higher("loadgen.ok", "count"),
    lower("loadgen.mutate_p50_ms", "ms"),
    lower("loadgen.mutate_p95_ms", "ms"),
    higher("loadgen.mutate_per_s", "1/s"),
    lower("loadgen.traced_round_trip_us", "us"),
    lower("loadgen.traced_over_measured", "ratio"),
    higher("loadgen.traced_requests", "count"),
    lower("loadgen.budget_sum_over_round_trip", "ratio"),
];

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(UNRESOLVED.iter().map(|m| (m.name, m.unit)))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .chain([(FAIL_SHARE, "share")])
        .find_map(|(n, unit)| (n == name).then_some(unit))
}
