//! Regression diffing of `hcd-metrics-v1` snapshots.
//!
//! [`diff_metrics`] compares two metrics documents (as produced by
//! [`RunMetrics::to_json`](crate::RunMetrics::to_json), e.g. via
//! `hcd-cli --metrics` or the bench harness) region by region and
//! counter by counter, and reports regressions: a timing value in the
//! *new* snapshot counts as regressed when it exceeds the old value by
//! both a relative threshold **and** an absolute floor, so nanosecond
//! noise on near-zero regions never trips the gate. This backs
//! `hcd-cli metrics-diff`, which CI runs against a committed baseline.
//!
//! The parser here is a minimal recursive-descent JSON reader — the
//! workspace is serde-free by design (DESIGN.md), and the metrics
//! documents are small and machine-generated.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value (just enough for metrics documents).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }

    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Member access: `json.get("regions")`.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj().and_then(|m| m.get(key))
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_num(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("expected `{lit}` at byte {pos}", pos = *pos))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|e| format!("bad number `{text}` at byte {start}: {e}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = Vec::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return String::from_utf8(out).map_err(|e| e.to_string());
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push(b'"'),
                    Some(b'\\') => out.push(b'\\'),
                    Some(b'/') => out.push(b'/'),
                    Some(b'n') => out.push(b'\n'),
                    Some(b'r') => out.push(b'\r'),
                    Some(b't') => out.push(b'\t'),
                    Some(b'b') => out.push(0x08),
                    Some(b'f') => out.push(0x0c),
                    Some(b'u') => {
                        let hex = b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| format!("bad \\u escape: {e}"))?;
                        // Surrogate pairs are not produced by our emitters;
                        // map lone surrogates to U+FFFD rather than erroring.
                        let c = char::from_u32(code).unwrap_or('\u{fffd}');
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(&c) => {
                out.push(c);
                *pos += 1;
            }
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            other => return Err(format!("expected `,` or `]`, got {other:?}")),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // '{'
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}", pos = *pos));
        }
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected `:` at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let value = parse_value(b, pos)?;
        map.insert(key, value);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            other => return Err(format!("expected `,` or `}}`, got {other:?}")),
        }
    }
}

/// One histogram entry of a parsed metrics snapshot, reduced to the
/// emitted percentile summary.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotHistogram {
    pub name: String,
    pub count: f64,
    pub p50_ns: f64,
    pub p90_ns: f64,
    pub p99_ns: f64,
    pub p999_ns: f64,
    pub max_ns: f64,
}

/// One region row of a parsed metrics snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotRegion {
    pub name: String,
    pub wall_ns: f64,
    pub chunk_max_ns: f64,
    pub imbalance: f64,
    /// The executor's worker count. Documents written before the field
    /// existed default to `chunks / invocations`, the divisor their
    /// `imbalance` was computed with.
    pub workers: f64,
}

/// A parsed `hcd-metrics-v1` document, reduced to the comparable values.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    pub total_wall_ns: f64,
    pub total_charged_ns: f64,
    pub regions: Vec<SnapshotRegion>,
    /// Counter name → value ("sum" and "max" counters alike).
    pub counters: BTreeMap<String, f64>,
    /// Latency-histogram percentile summaries (absent section ⇒ empty:
    /// pre-PR8 documents carry no `histograms`).
    pub histograms: Vec<SnapshotHistogram>,
    /// Top-level sections this parser did not recognise — surfaced by
    /// `metrics-diff` so schema drift is visible instead of silently
    /// ignored.
    pub unknown_sections: Vec<String>,
}

impl Snapshot {
    /// Parses a metrics JSON document, verifying the schema tag.
    pub fn parse(text: &str) -> Result<Snapshot, String> {
        let doc = Json::parse(text)?;
        let schema = doc
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("missing `schema` field")?;
        if schema != crate::METRICS_SCHEMA {
            return Err(format!(
                "schema mismatch: expected `{}`, got `{schema}`",
                crate::METRICS_SCHEMA
            ));
        }
        let num = |j: &Json, key: &str| -> Result<f64, String> {
            j.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing numeric field `{key}`"))
        };
        let mut snap = Snapshot {
            total_wall_ns: num(&doc, "total_wall_ns")?,
            total_charged_ns: num(&doc, "total_charged_ns")?,
            ..Snapshot::default()
        };
        for r in doc.get("regions").and_then(Json::as_arr).unwrap_or(&[]) {
            snap.regions.push(SnapshotRegion {
                name: r
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("region without name")?
                    .to_string(),
                wall_ns: num(r, "wall_ns")?,
                chunk_max_ns: num(r, "chunk_max_ns")?,
                imbalance: num(r, "imbalance")?,
                workers: match r.get("workers").and_then(Json::as_f64) {
                    Some(w) => w,
                    None => num(r, "chunks")? / num(r, "invocations")?.max(1.0),
                },
            });
        }
        // `counters` is absent in pre-PR3 documents; treat as empty.
        for c in doc.get("counters").and_then(Json::as_arr).unwrap_or(&[]) {
            let name = c
                .get("name")
                .and_then(Json::as_str)
                .ok_or("counter without name")?;
            snap.counters.insert(name.to_string(), num(c, "value")?);
        }
        // `histograms` is absent in pre-PR8 documents; treat as empty.
        for h in doc
            .get("histograms")
            .and_then(|h| h.get("entries"))
            .and_then(Json::as_arr)
            .unwrap_or(&[])
        {
            snap.histograms.push(SnapshotHistogram {
                name: h
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("histogram without name")?
                    .to_string(),
                count: num(h, "count")?,
                p50_ns: num(h, "p50_ns")?,
                p90_ns: num(h, "p90_ns")?,
                p99_ns: num(h, "p99_ns")?,
                p999_ns: num(h, "p999_ns")?,
                max_ns: num(h, "max_ns")?,
            });
        }
        const KNOWN_SECTIONS: [&str; 6] = [
            "schema",
            "total_wall_ns",
            "total_charged_ns",
            "regions",
            "counters",
            "histograms",
        ];
        if let Some(obj) = doc.as_obj() {
            for key in obj.keys() {
                if !KNOWN_SECTIONS.contains(&key.as_str()) {
                    snap.unknown_sections.push(key.clone());
                }
            }
        }
        Ok(snap)
    }

    /// The region named `name`, if present.
    pub fn region(&self, name: &str) -> Option<&SnapshotRegion> {
        self.regions.iter().find(|r| r.name == name)
    }

    /// The histogram summary named `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&SnapshotHistogram> {
        self.histograms.iter().find(|h| h.name == name)
    }
}

/// Tuning for [`diff_metrics`].
#[derive(Debug, Clone, Copy)]
pub struct DiffOptions {
    /// Relative regression threshold: `new > old * threshold` flags a
    /// timing regression. `1.25` = "25 % slower".
    pub threshold: f64,
    /// Absolute floor in nanoseconds: increases below this never count,
    /// so sub-microsecond regions can't trip the gate on noise.
    pub abs_floor_ns: f64,
    /// Relative threshold for *counter* regressions (work counters such
    /// as CAS retries are deterministic-ish, but still allowed slack).
    pub counter_threshold: f64,
    /// Gate on counters only: timing and imbalance rows are still
    /// reported (advisory), but never count as regressed. This is what
    /// CI uses — wall time on shared runners is noise, algorithm
    /// counters are reproducible.
    pub counters_only: bool,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions {
            threshold: 1.25,
            abs_floor_ns: 100_000.0, // 0.1 ms
            counter_threshold: 1.5,
            counters_only: false,
        }
    }
}

/// One comparison row in a [`DiffReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct DiffEntry {
    /// `region:<name>:<field>`, `counter:<name>`, or `total:<field>`.
    pub what: String,
    pub old: f64,
    pub new: f64,
    /// Whether this entry exceeded the regression gate.
    pub regressed: bool,
}

impl DiffEntry {
    /// `new / old`, or `inf` for a new-only nonzero value.
    pub fn ratio(&self) -> f64 {
        if self.old == 0.0 {
            if self.new == 0.0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.new / self.old
        }
    }
}

/// The outcome of comparing two snapshots.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiffReport {
    /// All compared values, regressions first, then by name.
    pub entries: Vec<DiffEntry>,
    /// Regions/counters present in only one snapshot (never regressions
    /// by themselves — phase structure legitimately changes between
    /// versions — but worth surfacing).
    pub only_old: Vec<String>,
    pub only_new: Vec<String>,
}

impl DiffReport {
    /// Whether any entry regressed.
    pub fn regressed(&self) -> bool {
        self.entries.iter().any(|e| e.regressed)
    }

    /// The regressed entries.
    pub fn regressions(&self) -> impl Iterator<Item = &DiffEntry> {
        self.entries.iter().filter(|e| e.regressed)
    }
}

impl fmt::Display for DiffReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in &self.entries {
            writeln!(
                f,
                "{} {:<40} {:>14.0} -> {:>14.0}  ({:.2}x)",
                if e.regressed {
                    "REGRESSED"
                } else {
                    "       ok"
                },
                e.what,
                e.old,
                e.new,
                e.ratio(),
            )?;
        }
        for name in &self.only_old {
            writeln!(f, "     gone {name}")?;
        }
        for name in &self.only_new {
            writeln!(f, "      new {name}")?;
        }
        Ok(())
    }
}

/// Compares two snapshots; see [`DiffOptions`] for the gate.
pub fn diff_metrics(old: &Snapshot, new: &Snapshot, opts: &DiffOptions) -> DiffReport {
    let timing_regressed = |old_v: f64, new_v: f64| {
        !opts.counters_only && new_v > old_v * opts.threshold && (new_v - old_v) > opts.abs_floor_ns
    };
    let mut report = DiffReport::default();
    report.entries.push(DiffEntry {
        what: "total:wall_ns".into(),
        old: old.total_wall_ns,
        new: new.total_wall_ns,
        regressed: timing_regressed(old.total_wall_ns, new.total_wall_ns),
    });
    report.entries.push(DiffEntry {
        what: "total:charged_ns".into(),
        old: old.total_charged_ns,
        new: new.total_charged_ns,
        regressed: timing_regressed(old.total_charged_ns, new.total_charged_ns),
    });
    for o in &old.regions {
        let Some(n) = new.region(&o.name) else {
            report.only_old.push(format!("region:{}", o.name));
            continue;
        };
        for (field, old_v, new_v, is_timing) in [
            ("wall_ns", o.wall_ns, n.wall_ns, true),
            ("chunk_max_ns", o.chunk_max_ns, n.chunk_max_ns, true),
            ("imbalance", o.imbalance, n.imbalance, false),
        ] {
            let regressed = if is_timing {
                timing_regressed(old_v, new_v)
            } else {
                // Imbalance is a ratio (>= 1); gate it on the relative
                // threshold alone, anchored at 1.0 so a 1.01 -> 1.30
                // drift counts the same as 1.01x -> 1.30x wall.
                !opts.counters_only && new_v > 1.0 && new_v > old_v * opts.threshold
            };
            report.entries.push(DiffEntry {
                what: format!("region:{}:{}", o.name, field),
                old: old_v,
                new: new_v,
                regressed,
            });
        }
        // Advisory: imbalance divides by the worker count, so a change
        // of `p` between snapshots shows up next to the ratio it moves.
        report.entries.push(DiffEntry {
            what: format!("region:{}:workers", o.name),
            old: o.workers,
            new: n.workers,
            regressed: false,
        });
    }
    for n in &new.regions {
        if old.region(&n.name).is_none() {
            report.only_new.push(format!("region:{}", n.name));
        }
    }
    for o in &old.histograms {
        let Some(n) = new.histogram(&o.name) else {
            report.only_old.push(format!("hist:{}", o.name));
            continue;
        };
        // p99 is the gated tail statistic (relative threshold + absolute
        // floor, like every timing gate); p50/p999/max ride along as
        // advisory rows so the report shows where in the distribution a
        // shift happened.
        for (field, old_v, new_v, gated) in [
            ("p50_ns", o.p50_ns, n.p50_ns, false),
            ("p99_ns", o.p99_ns, n.p99_ns, true),
            ("p999_ns", o.p999_ns, n.p999_ns, false),
            ("max_ns", o.max_ns, n.max_ns, false),
        ] {
            report.entries.push(DiffEntry {
                what: format!("hist:{}:{}", o.name, field),
                old: old_v,
                new: new_v,
                regressed: gated && timing_regressed(old_v, new_v),
            });
        }
    }
    for n in &new.histograms {
        if old.histogram(&n.name).is_none() {
            report.only_new.push(format!("hist:{}", n.name));
        }
    }
    for (name, old_v) in &old.counters {
        let Some(new_v) = new.counters.get(name) else {
            report.only_old.push(format!("counter:{name}"));
            continue;
        };
        report.entries.push(DiffEntry {
            what: format!("counter:{name}"),
            old: *old_v,
            new: *new_v,
            regressed: *new_v > old_v * opts.counter_threshold && (*new_v - *old_v) >= 16.0,
        });
    }
    for name in new.counters.keys() {
        if !old.counters.contains_key(name) {
            report.only_new.push(format!("counter:{name}"));
        }
    }
    report
        .entries
        .sort_by(|a, b| b.regressed.cmp(&a.regressed).then(a.what.cmp(&b.what)));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RegionMetrics, RunMetrics};

    fn sample_metrics(wall: u64) -> String {
        let rm = RunMetrics {
            regions: vec![RegionMetrics {
                invocations: 1,
                workers: 4,
                chunks: 4,
                wall_ns: wall,
                chunk_sum_ns: wall,
                chunk_max_ns: wall / 2,
                chunk_min_ns: wall / 8,
                ..RegionMetrics::new("phcd.union")
            }],
            counters: vec![crate::CounterValue {
                name: "uf.cas_retries",
                value: wall / 1000,
                kind: "sum",
            }],
            ..RunMetrics::default()
        };
        rm.to_json()
    }

    #[test]
    fn parses_emitted_documents_round_trip() {
        let snap = Snapshot::parse(&sample_metrics(2_000_000)).unwrap();
        assert_eq!(snap.regions.len(), 1);
        let r = snap.region("phcd.union").unwrap();
        assert_eq!(r.wall_ns, 2_000_000.0);
        assert_eq!(r.chunk_max_ns, 1_000_000.0);
        assert_eq!(r.workers, 4.0);
        assert_eq!(snap.counters["uf.cas_retries"], 2_000.0);
    }

    #[test]
    fn rejects_wrong_schema() {
        let err = Snapshot::parse(r#"{"schema": "something-else"}"#).unwrap_err();
        assert!(err.contains("schema mismatch"), "{err}");
    }

    #[test]
    fn identical_snapshots_do_not_regress() {
        let snap = Snapshot::parse(&sample_metrics(5_000_000)).unwrap();
        let report = diff_metrics(&snap, &snap, &DiffOptions::default());
        assert!(!report.regressed(), "{report}");
        assert!(report.only_old.is_empty() && report.only_new.is_empty());
    }

    #[test]
    fn wall_regression_past_threshold_is_flagged() {
        let old = Snapshot::parse(&sample_metrics(2_000_000)).unwrap();
        let new = Snapshot::parse(&sample_metrics(4_000_000)).unwrap();
        let report = diff_metrics(&old, &new, &DiffOptions::default());
        assert!(report.regressed());
        assert!(report
            .regressions()
            .any(|e| e.what == "region:phcd.union:wall_ns"));
        // Sorted regressions-first.
        assert!(report.entries[0].regressed);
    }

    #[test]
    fn abs_floor_suppresses_nanosecond_noise() {
        // 10x relative blowup but only 900ns absolute: below the floor.
        let old = Snapshot::parse(&sample_metrics(100)).unwrap();
        let new = Snapshot::parse(&sample_metrics(1_000)).unwrap();
        assert!(!diff_metrics(&old, &new, &DiffOptions::default()).regressed());
        // With the floor dropped, the same pair regresses.
        let strict = DiffOptions {
            abs_floor_ns: 0.0,
            ..DiffOptions::default()
        };
        assert!(diff_metrics(&old, &new, &strict).regressed());
    }

    #[test]
    fn structural_changes_are_surfaced_not_regressed() {
        let old = Snapshot::parse(&sample_metrics(1_000_000)).unwrap();
        let mut renamed = old.clone();
        renamed.regions[0].name = "phcd.union2".into();
        let report = diff_metrics(&old, &renamed, &DiffOptions::default());
        assert!(!report.regressed());
        assert_eq!(report.only_old, vec!["region:phcd.union".to_string()]);
        assert_eq!(report.only_new, vec!["region:phcd.union2".to_string()]);
    }

    #[test]
    fn counter_regression_uses_its_own_threshold() {
        let old = Snapshot::parse(&sample_metrics(2_000_000)).unwrap(); // ctr 2000
        let new = Snapshot::parse(&sample_metrics(4_000_000)).unwrap(); // ctr 4000
        let lax = DiffOptions {
            threshold: 100.0, // timing never trips here
            counter_threshold: 1.5,
            ..DiffOptions::default()
        };
        let report = diff_metrics(&old, &new, &lax);
        assert!(report
            .regressions()
            .any(|e| e.what == "counter:uf.cas_retries"));
        let relaxed = DiffOptions {
            threshold: 100.0,
            counter_threshold: 3.0,
            ..DiffOptions::default()
        };
        assert!(!diff_metrics(&old, &new, &relaxed).regressed());
    }

    #[test]
    fn counters_only_ignores_timing_but_keeps_counter_gate() {
        // 2x wall blowup AND 2x counter blowup.
        let old = Snapshot::parse(&sample_metrics(2_000_000)).unwrap();
        let new = Snapshot::parse(&sample_metrics(4_000_000)).unwrap();
        let opts = DiffOptions {
            counters_only: true,
            ..DiffOptions::default()
        };
        let report = diff_metrics(&old, &new, &opts);
        // The only regression is the counter; every timing row is
        // advisory but still present in the report.
        assert!(report.regressed());
        for e in report.regressions() {
            assert_eq!(e.what, "counter:uf.cas_retries");
        }
        assert!(report
            .entries
            .iter()
            .any(|e| e.what == "region:phcd.union:wall_ns" && !e.regressed));

        // With the counter also unchanged, nothing regresses no matter
        // how much slower the timings are.
        let mut same_ctr = new.clone();
        same_ctr.counters.insert("uf.cas_retries".into(), 2_000.0);
        assert!(!diff_metrics(&old, &same_ctr, &opts).regressed());
    }

    #[test]
    fn parser_handles_escapes_and_nesting() {
        let doc =
            Json::parse(r#"{"a": "q\"uote\\n", "b": [1, 2.5, -3e2], "c": {"d": null, "e": true}}"#)
                .unwrap();
        assert_eq!(doc.get("a").unwrap().as_str().unwrap(), "q\"uote\\n");
        let arr = doc.get("b").unwrap().as_arr().unwrap();
        assert_eq!(arr[2].as_f64().unwrap(), -300.0);
        assert_eq!(doc.get("c").unwrap().get("d"), Some(&Json::Null));
        assert!(Json::parse("{\"unterminated\": ").is_err());
        assert!(Json::parse("{} trailing").is_err());
    }

    fn hist_doc(p99: u64) -> String {
        format!(
            r#"{{"schema": "hcd-metrics-v1", "total_wall_ns": 0, "total_charged_ns": 0,
                "regions": [], "counters": [],
                "histograms": {{"version": 1, "sub_bits": 2, "entries": [
                  {{"name": "serve.query.core", "count": 100, "sum_ns": 1, "min_ns": 1,
                    "max_ns": {max}, "p50_ns": 1000, "p90_ns": 2000, "p99_ns": {p99},
                    "p999_ns": {max}, "buckets": [[0, 100]]}}
                ]}}}}"#,
            p99 = p99,
            max = p99 * 2,
        )
    }

    #[test]
    fn histogram_p99_regression_is_gated() {
        let old = Snapshot::parse(&hist_doc(1_000_000)).unwrap();
        let new = Snapshot::parse(&hist_doc(10_000_000)).unwrap();
        let report = diff_metrics(&old, &new, &DiffOptions::default());
        assert!(report.regressed());
        assert!(report
            .regressions()
            .all(|e| e.what == "hist:serve.query.core:p99_ns"));
        // p50 / p999 / max rows are advisory: present, never gated.
        for field in ["p50_ns", "p999_ns", "max_ns"] {
            assert!(report
                .entries
                .iter()
                .any(|e| e.what == format!("hist:serve.query.core:{field}") && !e.regressed));
        }
        // Under counters-only, the p99 shift is advisory too.
        let opts = DiffOptions {
            counters_only: true,
            ..DiffOptions::default()
        };
        assert!(!diff_metrics(&old, &new, &opts).regressed());
    }

    #[test]
    fn histogram_p99_noise_below_abs_floor_passes() {
        // 50x relative blowup but only 49µs absolute: under the 0.1ms floor.
        let old = Snapshot::parse(&hist_doc(1_000)).unwrap();
        let new = Snapshot::parse(&hist_doc(50_000)).unwrap();
        assert!(!diff_metrics(&old, &new, &DiffOptions::default()).regressed());
    }

    #[test]
    fn histogram_structure_changes_are_surfaced() {
        let with = Snapshot::parse(&hist_doc(1_000)).unwrap();
        let without = Snapshot::parse(&sample_metrics(1_000)).unwrap();
        let report = diff_metrics(&with, &without, &DiffOptions::default());
        assert!(report
            .only_old
            .contains(&"hist:serve.query.core".to_string()));
        let report = diff_metrics(&without, &with, &DiffOptions::default());
        assert!(report
            .only_new
            .contains(&"hist:serve.query.core".to_string()));
    }

    #[test]
    fn unknown_sections_are_collected() {
        let text = r#"{"schema": "hcd-metrics-v1", "total_wall_ns": 0,
            "total_charged_ns": 0, "regions": [], "counters": [],
            "futurestuff": {"x": 1}, "alsofuture": []}"#;
        let snap = Snapshot::parse(text).unwrap();
        assert_eq!(
            snap.unknown_sections,
            vec!["alsofuture".to_string(), "futurestuff".to_string()]
        );
        // Emitted documents are fully recognised.
        let clean = Snapshot::parse(&sample_metrics(1_000)).unwrap();
        assert!(clean.unknown_sections.is_empty());
    }

    #[test]
    fn emitted_histograms_round_trip_through_the_parser() {
        let exec = crate::Executor::sequential()
            .with_metrics()
            .with_histograms();
        for ns in [1_000u64, 2_000, 4_000, 1_000_000] {
            exec.observe_ns("rt.series", ns);
        }
        let json = exec.take_metrics().to_json();
        let snap = Snapshot::parse(&json).unwrap();
        let h = snap.histogram("rt.series").expect("histogram parsed");
        assert_eq!(h.count, 4.0);
        assert_eq!(h.max_ns, 1_000_000.0);
        assert!(h.p50_ns <= h.p99_ns && h.p99_ns <= h.p999_ns);
        assert!(h.p999_ns <= h.max_ns);
        assert!(snap.unknown_sections.is_empty());
    }

    #[test]
    fn corrupted_documents_never_panic_and_truncations_are_rejected() {
        // A real document: an armed sequential run with one region (so
        // also one region histogram) and one counter.
        let exec = crate::Executor::sequential()
            .with_metrics()
            .with_histograms();
        exec.region("r").try_for_each_index(4, |_| Ok(())).unwrap();
        exec.add_counter("c", 3);
        let doc = exec.take_metrics().to_json();
        Snapshot::parse(&doc).expect("the pristine document parses");
        let bytes = doc.as_bytes();
        let body = doc.trim_end().len();
        for len in 0..bytes.len() {
            let parsed = Snapshot::parse(&doc[..len]);
            if len < body {
                assert!(parsed.is_err(), "prefix of {len} bytes parsed");
            }
        }
        let mut mutant = bytes.to_vec();
        for i in 0..bytes.len() {
            for v in 0..=u8::MAX {
                if v == bytes[i] {
                    continue;
                }
                mutant[i] = v;
                // The reader takes text; a flip that breaks UTF-8 never
                // reaches it.
                if let Ok(text) = std::str::from_utf8(&mutant) {
                    let _ = Snapshot::parse(text);
                }
            }
            mutant[i] = bytes[i];
        }
    }

    #[test]
    fn pre_counters_documents_still_parse() {
        // A PR2-era document has no `counters` array.
        let text = r#"{
          "schema": "hcd-metrics-v1",
          "total_wall_ns": 10,
          "total_charged_ns": 5,
          "regions": [{"name": "x", "invocations": 1, "chunks": 1,
            "wall_ns": 10, "chunk_sum_ns": 10, "chunk_max_ns": 5,
            "chunk_min_ns": 5, "imbalance": 1.0, "checkpoints": 0,
            "cancelled": 0, "deadline_exceeded": 0, "panicked": 0,
            "faults_injected": 0}]
        }"#;
        let snap = Snapshot::parse(text).unwrap();
        assert!(snap.counters.is_empty());
        assert_eq!(snap.region("x").unwrap().chunk_max_ns, 5.0);
        // No `workers` field: defaults to chunks / invocations.
        assert_eq!(snap.region("x").unwrap().workers, 1.0);
    }
}
