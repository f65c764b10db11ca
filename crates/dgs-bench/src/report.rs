//! Machine-readable benchmark trajectory: JSON model, emitter, parser,
//! and schema validation.
//!
//! The repo tracks performance over time through committed
//! `BENCH_<date>.json` files. Both measurement paths — the wall-clock
//! harness ([`crate::wallclock`], real threads, wall nanoseconds) and the
//! virtual-time figures ([`crate::figures`], deterministic simulator) —
//! emit into one shared schema so a single file carries the whole
//! trajectory point. No JSON crate is vendored, so this module carries a
//! ~tiny value model with a renderer, a recursive-descent parser (used by
//! `wallclock --validate` and CI), and the schema check itself.
//!
//! # Schema (version 1)
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "captured_at": "2026-07-26",
//!   "host": {"os": "linux", "arch": "x86_64", "hw_threads": 16},
//!   "results": [
//!     {
//!       "kind": "wallclock", "time_base": "wall",
//!       "workload": "value-barrier", "system": "dgs-threads",
//!       "channel_mode": "per-edge",
//!       "workers": 4, "rate_eps": 200000,
//!       "events": 10100, "outputs": 20, "elapsed_ns": 51000000,
//!       "throughput_eps": 198039.2,
//!       "latency_ns": {"p50": 81920, "p95": 163840, "p99": 229376,
//!                      "max": 301251, "samples": 20},
//!       "worker_msgs": [2525, 2525, 2525, 2526, 120]
//!     },
//!     {
//!       "kind": "simulator", "time_base": "virtual",
//!       "figure": "fig8_flumina", "workload": "Event Win.",
//!       "system": "flumina", "workers": 8,
//!       "throughput_eps": 5400000.0,
//!       "latency_ns": {"p10": 1200, "p50": 2100, "p90": 5300},
//!       "net_bytes": 123456
//!     }
//!   ]
//! }
//! ```
//!
//! `latency_ns` may be `null` when a run collected no samples (e.g. an
//! unpaced max-throughput run, which has no per-event reference time).
//! Percentile keys are free-form `pNN`; wall-clock entries always carry
//! `p50`/`p95`/`p99`.
//!
//! `channel_mode` (wallclock entries) names the edge storage the run
//! used — `"per-edge"` (mutex-protected deques, chosen on one executor
//! shard: the storage every pre-ring capture measured under this name,
//! kept so its cells stay comparable) or `"per-edge-ring"` (lock-free
//! SPSC rings, chosen on more than one shard). Committed captures also
//! carry `"ticketed"`, the global-send-order plane retired when the
//! runtime settled on per-edge delivery: the validator keeps accepting
//! it so history is not rewritten, but no fresh sweep emits it. The
//! field is *optional* so trajectory files captured before the
//! message-plane A/B existed keep validating; absence means that
//! original ticketed plane (comparison tools like `bench-diff` default
//! it accordingly).
//!
//! `executor_threads` (wallclock entries) records the sharded
//! executor's pinned event-loop thread count. It is present only when
//! the capture pinned the axis (`--executor-threads`); default-executor
//! cells omit it so their identity keys stay byte-comparable with
//! artifacts captured before the executor existed.
//!
//! `kind: "replan"` entries (the elasticity axis, `wallclock --skew`,
//! [`crate::elasticity`]) measure the elastic replan controller on the
//! zipf-skewed page-view cell. Their identity is the *arm*: `workload` ×
//! `workers` (pages) × the required boolean `elastic` (controller on or
//! off), so bench-diff gates each arm against its own history rather
//! than pitting the controller against the static baseline — that
//! within-capture ratio is the elasticity win the tables report. They
//! require `events`, `elapsed_ns`, and `replans`; carry optional
//! `plan_workers`/`outputs`/`forks`/`joins` counters; and carry
//! `pause_p50_ns`/`pause_p95_ns`/`pause_max_ns` (affected-partition
//! stop-the-partition pause percentiles) only when the arm actually
//! replanned. `spec_ok` is boolean when the arm was spec-checked, null
//! otherwise; `latency_ns` is null (unpaced capacity runs have no
//! per-event reference time).

use std::fmt::Write as _;

// ---------------------------------------------------------------------
// JSON value model.
// ---------------------------------------------------------------------

/// A JSON value. Numbers keep integer/float identity so counters render
/// exactly (`Int`) while rates keep their fraction (`Num`).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Integral number.
    Int(i64),
    /// Floating-point number (non-finite values render as `null`).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object, insertion-ordered.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric view (integers and floats).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Int(i) => Some(i as f64),
            Json::Num(n) => Some(n),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Render to a compact JSON string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(n) => {
                if n.is_finite() {
                    // `{:?}` keeps a trailing `.0` on integral floats, so
                    // the value round-trips as a float.
                    let _ = write!(out, "{n:?}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent + 1);
                    item.write(out, indent + 1);
                }
                if !items.is_empty() {
                    newline(out, indent);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                if !fields.is_empty() {
                    newline(out, indent);
                }
                out.push('}');
            }
        }
    }

    /// Parse a JSON document (the subset this crate emits: no huge
    /// numbers beyond `f64`, `\uXXXX` escapes decoded as code points).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }
}

fn newline(out: &mut String, indent: usize) {
    out.push('\n');
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected byte at {}", self.pos)),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'-' | b'+' | b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "non-utf8 number".to_string())?;
        if !float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>().map(Json::Num).map_err(|e| format!("bad number `{text}`: {e}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid utf8 in string".to_string())?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("dangling escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            self.pos += 4;
                            s.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape `\\{}`", other as char)),
                    }
                }
                _ => return Err("unterminated string".to_string()),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

// ---------------------------------------------------------------------
// Trajectory schema.
// ---------------------------------------------------------------------

/// Current schema version.
pub const SCHEMA_VERSION: i64 = 1;

/// One virtual-time (simulator) result, produced by the figure sweeps.
#[derive(Debug, Clone)]
pub struct SimEntry {
    /// Which figure sweep produced it (`fig4_flink`, `fig8_flumina`, …).
    pub figure: String,
    /// Workload/series name as the figure labels it.
    pub workload: String,
    /// System under measurement (`flink`, `timely`, `flumina`).
    pub system: String,
    /// Parallelism of the point.
    pub workers: u32,
    /// Virtual-time throughput in events per (virtual) second.
    pub throughput_eps: f64,
    /// p10/p50/p90 output latency in virtual nanoseconds.
    pub latency_p10_p50_p90: Option<(u64, u64, u64)>,
    /// Bytes that crossed the simulated network.
    pub net_bytes: u64,
}

impl SimEntry {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("kind".into(), Json::Str("simulator".into())),
            ("time_base".into(), Json::Str("virtual".into())),
            ("figure".into(), Json::Str(self.figure.clone())),
            ("workload".into(), Json::Str(self.workload.clone())),
            ("system".into(), Json::Str(self.system.clone())),
            ("workers".into(), Json::Int(self.workers as i64)),
            ("throughput_eps".into(), Json::Num(self.throughput_eps)),
            (
                "latency_ns".into(),
                match self.latency_p10_p50_p90 {
                    None => Json::Null,
                    Some((p10, p50, p90)) => Json::Obj(vec![
                        ("p10".into(), Json::Int(p10 as i64)),
                        ("p50".into(), Json::Int(p50 as i64)),
                        ("p90".into(), Json::Int(p90 as i64)),
                    ]),
                },
            ),
            ("net_bytes".into(), Json::Int(self.net_bytes as i64)),
        ])
    }
}

/// Assemble the full trajectory document from wall-clock points,
/// simulator entries, recovery points, and elasticity (replan) points.
pub fn trajectory(
    captured_at: &str,
    wall: &[crate::wallclock::WallclockPoint],
    sim: &[SimEntry],
    recovery: &[crate::recovery::RecoveryPoint],
    replan: &[crate::elasticity::ReplanPoint],
) -> Json {
    let mut results: Vec<Json> = wall.iter().map(|p| p.to_json()).collect();
    results.extend(sim.iter().map(|e| e.to_json()));
    results.extend(recovery.iter().map(|p| p.to_json()));
    results.extend(replan.iter().map(|p| p.to_json()));
    Json::Obj(vec![
        ("schema_version".into(), Json::Int(SCHEMA_VERSION)),
        ("captured_at".into(), Json::Str(captured_at.to_string())),
        (
            "host".into(),
            Json::Obj(vec![
                ("os".into(), Json::Str(std::env::consts::OS.into())),
                ("arch".into(), Json::Str(std::env::consts::ARCH.into())),
                (
                    "hw_threads".into(),
                    Json::Int(
                        std::thread::available_parallelism().map(|n| n.get() as i64).unwrap_or(0),
                    ),
                ),
            ]),
        ),
        ("results".into(), Json::Arr(results)),
    ])
}

fn require_number(entry: &Json, key: &str, i: usize) -> Result<(), String> {
    entry
        .get(key)
        .and_then(Json::as_f64)
        .map(|_| ())
        .ok_or_else(|| format!("results[{i}]: missing numeric `{key}`"))
}

/// Optional numeric field: absent is fine (a pre-metrics artifact), but
/// a present value must be a number.
fn optional_number(entry: &Json, key: &str, i: usize) -> Result<(), String> {
    match entry.get(key) {
        None => Ok(()),
        Some(v) if v.as_f64().is_some() => Ok(()),
        Some(other) => {
            Err(format!("results[{i}]: `{key}` must be numeric when present, got {}", other.render()))
        }
    }
}

fn require_string(entry: &Json, key: &str, i: usize) -> Result<String, String> {
    entry
        .get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("results[{i}]: missing string `{key}`"))
}

/// Validate a parsed document against the trajectory schema. Returns the
/// number of results on success.
pub fn validate_trajectory(doc: &Json) -> Result<usize, String> {
    let version = doc
        .get("schema_version")
        .and_then(Json::as_f64)
        .ok_or("missing numeric `schema_version`")?;
    if version != SCHEMA_VERSION as f64 {
        return Err(format!("unsupported schema_version {version}"));
    }
    doc.get("captured_at").and_then(Json::as_str).ok_or("missing string `captured_at`")?;
    let host = doc.get("host").ok_or("missing `host`")?;
    host.get("os").and_then(Json::as_str).ok_or("missing string `host.os`")?;
    let results = doc.get("results").and_then(Json::as_arr).ok_or("missing array `results`")?;
    for (i, entry) in results.iter().enumerate() {
        let kind = require_string(entry, "kind", i)?;
        let time_base = require_string(entry, "time_base", i)?;
        require_string(entry, "workload", i)?;
        require_string(entry, "system", i)?;
        require_number(entry, "workers", i)?;
        require_number(entry, "throughput_eps", i)?;
        match (kind.as_str(), time_base.as_str()) {
            ("wallclock", "wall") => {
                require_number(entry, "rate_eps", i)?;
                require_number(entry, "events", i)?;
                require_number(entry, "elapsed_ns", i)?;
                // Optional (absent in pre-A/B captures); when present it
                // must be a known name — including "ticketed", which only
                // committed captures still carry.
                match entry.get("channel_mode") {
                    None => {}
                    Some(Json::Str(m))
                        if m == "per-edge" || m == "per-edge-ring" || m == "ticketed" => {}
                    Some(other) => {
                        return Err(format!(
                            "results[{i}]: channel_mode must be \"per-edge\", \
                             \"per-edge-ring\", or \"ticketed\", got {}",
                            other.render()
                        ))
                    }
                }
                let msgs = entry
                    .get("worker_msgs")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| format!("results[{i}]: missing array `worker_msgs`"))?;
                if msgs.iter().any(|m| m.as_f64().is_none()) {
                    return Err(format!("results[{i}]: non-numeric worker_msgs entry"));
                }
                // Metrics-plane gauges: optional (absent in legacy and
                // `--no-metrics` captures — absence is not a failure).
                optional_number(entry, "max_queue_depth", i)?;
                optional_number(entry, "stalls", i)?;
                // Sharded-executor axis: present only when the capture
                // pinned `--executor-threads`; default cells omit it so
                // their identity keys match pre-executor artifacts.
                optional_number(entry, "executor_threads", i)?;
            }
            ("simulator", "virtual") => {
                require_string(entry, "figure", i)?;
                require_number(entry, "net_bytes", i)?;
            }
            ("replan", "wall") => {
                // The arm identity: a cell is (workload, workers,
                // controller on/off), so `elastic` must be a real bool.
                if !matches!(entry.get("elastic"), Some(Json::Bool(_))) {
                    return Err(format!("results[{i}]: missing boolean `elastic`"));
                }
                for key in ["events", "elapsed_ns", "replans"] {
                    require_number(entry, key, i)?;
                }
                for key in [
                    "plan_workers",
                    "outputs",
                    "forks",
                    "joins",
                    "pause_p50_ns",
                    "pause_p95_ns",
                    "pause_max_ns",
                ] {
                    optional_number(entry, key, i)?;
                }
                // Like wallclock's check-spec cells: bool when checked,
                // null when the arm ran unchecked.
                match entry.get("spec_ok") {
                    None | Some(Json::Null) | Some(Json::Bool(_)) => {}
                    Some(other) => {
                        return Err(format!(
                            "results[{i}]: spec_ok must be boolean or null, got {}",
                            other.render()
                        ))
                    }
                }
            }
            ("recovery", "wall") => {
                let fault = require_string(entry, "fault", i)?;
                if !matches!(
                    fault.as_str(),
                    "clean-crash" | "torn-tail" | "truncated-manifest" | "stale-manifest"
                ) {
                    return Err(format!("results[{i}]: unknown fault `{fault}`"));
                }
                for key in [
                    "kill_after_checkpoints",
                    "events",
                    "events_replayed",
                    "events_lost",
                    "open_ns",
                    "replay_ns",
                ] {
                    require_number(entry, key, i)?;
                }
                // Metrics-plane field: optional for legacy artifacts.
                optional_number(entry, "fsync_p95_ns", i)?;
                for key in ["recovered", "spec_ok"] {
                    if !matches!(entry.get(key), Some(Json::Bool(_))) {
                        return Err(format!("results[{i}]: missing boolean `{key}`"));
                    }
                }
            }
            (k, t) => return Err(format!("results[{i}]: invalid kind/time_base `{k}`/`{t}`")),
        }
        match entry.get("latency_ns") {
            None => return Err(format!("results[{i}]: missing `latency_ns` (may be null)")),
            Some(Json::Null) => {}
            Some(obj @ Json::Obj(fields)) => {
                if fields.is_empty() || fields.iter().any(|(_, v)| v.as_f64().is_none()) {
                    return Err(format!("results[{i}]: latency_ns must map pNN to numbers"));
                }
                if obj.get("p50").is_none() {
                    return Err(format!("results[{i}]: latency_ns must include p50"));
                }
            }
            Some(_) => return Err(format!("results[{i}]: latency_ns must be object or null")),
        }
    }
    Ok(results.len())
}

/// Today's UTC date as `YYYY-MM-DD` (civil-from-days, Howard Hinnant's
/// algorithm — no date crate in the offline vendor set).
pub fn utc_date_string() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!("{y:04}-{m:02}-{d:02}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_roundtrip() {
        let doc = Json::Obj(vec![
            ("a".into(), Json::Int(-42)),
            ("b".into(), Json::Num(1.5)),
            ("c".into(), Json::Str("quote \" backslash \\ newline \n".into())),
            ("d".into(), Json::Arr(vec![Json::Null, Json::Bool(true), Json::Int(0)])),
            ("e".into(), Json::Obj(vec![])),
            ("f".into(), Json::Arr(vec![])),
        ]);
        let text = doc.render();
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn integral_floats_stay_floats() {
        let text = Json::Num(3.0).render();
        assert_eq!(text, "3.0");
        assert_eq!(Json::parse(&text).unwrap(), Json::Num(3.0));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\": 1} x").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("\"\\q\"").is_err());
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(Json::parse("\"\\u0041\\u00e9\"").unwrap(), Json::Str("Aé".into()));
    }

    #[test]
    fn date_string_is_civil() {
        // Shape only (the wall clock moves): YYYY-MM-DD with sane ranges.
        let d = utc_date_string();
        let parts: Vec<&str> = d.split('-').collect();
        assert_eq!(parts.len(), 3, "{d}");
        let y: i64 = parts[0].parse().unwrap();
        let m: u32 = parts[1].parse().unwrap();
        let day: u32 = parts[2].parse().unwrap();
        assert!(y >= 2024, "{d}");
        assert!((1..=12).contains(&m), "{d}");
        assert!((1..=31).contains(&day), "{d}");
    }

    #[test]
    fn validate_accepts_sim_entry_and_rejects_missing_fields() {
        let entry = SimEntry {
            figure: "fig8_flumina".into(),
            workload: "Event Win.".into(),
            system: "flumina".into(),
            workers: 8,
            throughput_eps: 5.4e6,
            latency_p10_p50_p90: Some((1, 2, 3)),
            net_bytes: 99,
        };
        let doc = trajectory("2026-07-26", &[], &[entry], &[], &[]);
        assert_eq!(validate_trajectory(&doc), Ok(1));
        // Break it: drop `workers` from the entry.
        let text = doc.render().replace("\"workers\"", "\"warkers\"");
        let broken = Json::parse(&text).unwrap();
        assert!(validate_trajectory(&broken).is_err());
        // Wrong schema version.
        let text = doc.render().replace("\"schema_version\": 1", "\"schema_version\": 2");
        assert!(validate_trajectory(&Json::parse(&text).unwrap()).is_err());
    }

    /// The metrics-plane trajectory fields are optional — absent means a
    /// legacy (or `--no-metrics`) artifact and still validates — but a
    /// present value must be numeric.
    #[test]
    fn metrics_fields_are_optional_but_type_checked() {
        let legacy = r#"{
            "schema_version": 1, "captured_at": "2026-08-08",
            "host": {"os": "linux", "arch": "x86_64", "hw_threads": 1},
            "results": [{
                "kind": "wallclock", "time_base": "wall",
                "workload": "value-barrier", "system": "dgs-threads",
                "workers": 2, "rate_eps": 0, "events": 10, "outputs": 1,
                "elapsed_ns": 5, "throughput_eps": 2.0,
                "latency_ns": null, "worker_msgs": [5, 5], "spec_ok": null
            }]
        }"#;
        let doc = Json::parse(legacy).unwrap();
        assert_eq!(validate_trajectory(&doc), Ok(1), "absence is not a failure");
        let with = legacy.replace(
            "\"spec_ok\": null",
            "\"spec_ok\": null, \"max_queue_depth\": 7, \"stalls\": 0",
        );
        assert_eq!(validate_trajectory(&Json::parse(&with).unwrap()), Ok(1));
        let bad = legacy.replace("\"spec_ok\": null", "\"spec_ok\": null, \"stalls\": \"lots\"");
        let err = validate_trajectory(&Json::parse(&bad).unwrap()).unwrap_err();
        assert!(err.contains("stalls"), "{err}");
    }
}
