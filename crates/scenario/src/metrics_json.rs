//! JSON serialization of `sfo-obs` metrics snapshots.
//!
//! `sfo-obs` is deliberately std-only, so its [`MetricsSnapshot`] learns the
//! workspace's hand-rolled JSON dialect here, where the [`ToJson`]/[`FromJson`] traits
//! live. The shape is two name-keyed objects:
//!
//! ```json
//! {
//!   "counters": { "engine.jobs": 1200, "net.connections": 3 },
//!   "histograms": {
//!     "net.request_micros": {
//!       "count": 40, "sum": 81920, "max": 4100,
//!       "p50": 2047, "p95": 4095, "p99": 4100,
//!       "buckets": [[11, 30], [12, 10]]
//!     }
//!   }
//! }
//! ```
//!
//! The `p50`/`p95`/`p99` members are *derived* — written for human readers of a
//! `--metrics-out` file, recomputable from the buckets — so the reader accepts and
//! discards them rather than trusting them. Everything else is strict in the house
//! style: unknown fields, bucket indices at or past `BUCKET_COUNT`, and buckets out of
//! ascending order are errors, so a canonical snapshot round-trips and a corrupted one
//! is refused, never silently reinterpreted.

use crate::json::{FromJson, JsonValue, ToJson};
use crate::table::{member, members, required};
use crate::ScenarioError;
use sfo_obs::{HistogramSnapshot, MetricsSnapshot, BUCKET_COUNT};

impl ToJson for MetricsSnapshot {
    fn to_json(&self) -> JsonValue {
        let counters = self
            .counters
            .iter()
            .map(|(name, value)| (name.clone(), JsonValue::from_u64(*value)))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(name, histogram)| (name.clone(), histogram_to_json(histogram)))
            .collect();
        JsonValue::Object(vec![
            ("counters".to_string(), JsonValue::Object(counters)),
            ("histograms".to_string(), JsonValue::Object(histograms)),
        ])
    }
}

fn histogram_to_json(histogram: &HistogramSnapshot) -> JsonValue {
    let buckets = histogram
        .buckets
        .iter()
        .map(|&(bucket, samples)| {
            JsonValue::Array(vec![
                JsonValue::from_u64(u64::from(bucket)),
                JsonValue::from_u64(samples),
            ])
        })
        .collect();
    JsonValue::Object(vec![
        ("count".to_string(), JsonValue::from_u64(histogram.count)),
        ("sum".to_string(), JsonValue::from_u64(histogram.sum)),
        ("max".to_string(), JsonValue::from_u64(histogram.max)),
        ("p50".to_string(), JsonValue::from_u64(histogram.p50())),
        ("p95".to_string(), JsonValue::from_u64(histogram.p95())),
        ("p99".to_string(), JsonValue::from_u64(histogram.p99())),
        ("buckets".to_string(), JsonValue::Array(buckets)),
    ])
}

impl FromJson for MetricsSnapshot {
    fn from_json(value: &JsonValue) -> Result<Self, ScenarioError> {
        const CTX: &str = "metrics snapshot";
        let members = members(value, CTX, None, &["counters", "histograms"])?;
        let named = |key: &str| {
            required(members, CTX, key)?.as_object().ok_or_else(|| {
                ScenarioError::invalid(format!("{CTX}: \"{key}\" must be an object"))
            })
        };
        let counters = named("counters")?
            .iter()
            .map(|(name, v)| {
                let value = v.as_u64().ok_or_else(|| {
                    ScenarioError::invalid(format!(
                        "{CTX}: counter \"{name}\" must be a non-negative integer"
                    ))
                })?;
                Ok((name.clone(), value))
            })
            .collect::<Result<Vec<(String, u64)>, ScenarioError>>()?;
        let histograms = named("histograms")?
            .iter()
            .map(|(name, v)| Ok((name.clone(), histogram_from_json(name, v)?)))
            .collect::<Result<Vec<(String, HistogramSnapshot)>, ScenarioError>>()?;
        Ok(MetricsSnapshot {
            counters,
            histograms,
        })
    }
}

fn histogram_from_json(name: &str, value: &JsonValue) -> Result<HistogramSnapshot, ScenarioError> {
    let ctx = format!("histogram \"{name}\"");
    // p50/p95/p99 are derived from the buckets; accepted for round-tripping, ignored.
    let members = members(
        value,
        &ctx,
        None,
        &["count", "sum", "max", "p50", "p95", "p99", "buckets"],
    )?;
    let mut buckets = Vec::new();
    for entry in required(members, &ctx, "buckets")?
        .as_array()
        .ok_or_else(|| ScenarioError::invalid(format!("{ctx}: \"buckets\" must be an array")))?
    {
        let pair = entry
            .as_array()
            .filter(|pair| pair.len() == 2)
            .ok_or_else(|| {
                ScenarioError::invalid(format!("{ctx}: each bucket must be an [index, count] pair"))
            })?;
        let bucket = pair[0]
            .as_u64()
            .filter(|&b| (b as usize) < BUCKET_COUNT)
            .ok_or_else(|| {
                ScenarioError::invalid(format!(
                    "{ctx}: bucket index must be an integer below {BUCKET_COUNT}"
                ))
            })? as u8;
        let samples = pair[1].as_u64().ok_or_else(|| {
            ScenarioError::invalid(format!(
                "{ctx}: bucket count must be a non-negative integer"
            ))
        })?;
        if buckets.last().is_some_and(|&(last, _)| last >= bucket) {
            return Err(ScenarioError::invalid(format!(
                "{ctx}: bucket indices must be strictly ascending"
            )));
        }
        buckets.push((bucket, samples));
    }
    Ok(HistogramSnapshot {
        count: member(members, &ctx, "count", false, None)?,
        sum: member(members, &ctx, "sum", false, None)?,
        max: member(members, &ctx, "max", false, None)?,
        buckets,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfo_obs::Registry;

    fn sample_snapshot() -> MetricsSnapshot {
        let registry = Registry::new();
        registry.counter("engine.jobs").add(1200);
        registry.counter("net.connections").add(3);
        let histogram = registry.histogram("net.request_micros");
        for v in [100, 900, 2000, 4100] {
            histogram.record(v);
        }
        registry.snapshot()
    }

    #[test]
    fn snapshots_round_trip_through_json() {
        let snapshot = sample_snapshot();
        let text = snapshot.to_json().to_pretty_string();
        let reparsed = MetricsSnapshot::from_json(&JsonValue::parse(&text).unwrap()).unwrap();
        assert_eq!(reparsed.counters, snapshot.counters);
        assert_eq!(reparsed.histograms, snapshot.histograms);
        // The derived quantiles survive the trip because they are recomputed, not stored.
        assert_eq!(
            reparsed.histogram("net.request_micros").unwrap().p99(),
            snapshot.histogram("net.request_micros").unwrap().p99()
        );
    }

    #[test]
    fn empty_snapshots_serialize_to_empty_objects() {
        let text = Registry::new().snapshot().to_json().to_pretty_string();
        let reparsed = MetricsSnapshot::from_json(&JsonValue::parse(&text).unwrap()).unwrap();
        assert!(reparsed.is_empty());
    }

    #[test]
    fn readers_reject_malformed_histograms() {
        for bad in [
            // Bucket index past the fixed bucket array.
            r#"{"counters": {}, "histograms": {"h": {"count": 1, "sum": 1, "max": 1, "buckets": [[65, 1]]}}}"#,
            // Buckets out of ascending order.
            r#"{"counters": {}, "histograms": {"h": {"count": 2, "sum": 2, "max": 1, "buckets": [[3, 1], [2, 1]]}}}"#,
            // A bucket that is not a pair.
            r#"{"counters": {}, "histograms": {"h": {"count": 1, "sum": 1, "max": 1, "buckets": [[2]]}}}"#,
            // Unknown field.
            r#"{"counters": {}, "histograms": {"h": {"count": 0, "sum": 0, "max": 0, "mean": 0, "buckets": []}}}"#,
            // Negative counter.
            r#"{"counters": {"c": -4}, "histograms": {}}"#,
        ] {
            let value = JsonValue::parse(bad).unwrap();
            assert!(MetricsSnapshot::from_json(&value).is_err(), "{bad}");
        }
    }

    #[test]
    fn derived_quantiles_are_written_and_ignored_on_read() {
        let json = sample_snapshot().to_json();
        let histogram = json.get("histograms").unwrap().get("net.request_micros");
        let histogram = histogram.unwrap();
        assert!(histogram.get("p50").unwrap().as_u64().is_some());
        // Lying quantiles do not survive: the reader recomputes from the buckets.
        let lied = r#"{"counters": {}, "histograms": {"h": {"count": 1, "sum": 8, "max": 8, "p50": 999999, "p95": 999999, "p99": 999999, "buckets": [[4, 1]]}}}"#;
        let reparsed = MetricsSnapshot::from_json(&JsonValue::parse(lied).unwrap()).unwrap();
        assert_eq!(reparsed.histogram("h").unwrap().p50(), 8);
    }
}
