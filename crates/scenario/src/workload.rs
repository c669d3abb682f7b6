//! Open-loop load-test workloads: the spec behind `sfo loadtest`.
//!
//! A [`WorkloadSpec`] describes traffic against a serving worker the same way every
//! other spec in this crate describes an experiment: as data, derived from seeded
//! streams, round-tripping through JSON. It names an arrival process
//! ([`ArrivalSpec`] — Poisson, or bursty on/off with Pareto-distributed period
//! lengths, the classical self-similar-traffic construction), an offered rate and
//! duration, a job mix (search algorithm, TTL, jobs per request), and a connection
//! fan-out.
//!
//! Two derived streams make a workload reproducible *and* observationally safe:
//!
//! * **Arrival times** come from the workload's own stream family
//!   ([`WorkloadSpec::schedule`]) — same seed, same schedule, byte for byte.
//! * **Query sources** come from a per-request stream
//!   ([`WorkloadSpec::request_sources`]), and request `i`'s jobs carry the global
//!   index offset `i * jobs_per_request` — the workspace's `(batch seed, global job
//!   index)` rule. A worker therefore answers request `i` with byte-identical
//!   `BatchResult` payloads whether the run is idle or saturated, and no matter
//!   which *other* requests were shed: load testing observes the serving path, it
//!   never perturbs results (determinism rule 6).

use crate::json::{FromJson, JsonValue, ToJson};
use crate::spec::SearchSpec;
use crate::table::{json_enum, json_record};
use crate::ScenarioError;
use rand::Rng;
use sfo_search::experiment::{label_salt, stream_rng};

/// Stream-family label of the arrival-time schedule.
const ARRIVAL_STREAM_LABEL: &str = "sfo-scenario/workload-arrivals";
/// Stream-family label of per-request query sources.
const SOURCE_STREAM_LABEL: &str = "sfo-scenario/workload-sources";

/// Hard cap on the arrivals one schedule may generate: an offered rate times a
/// duration above this is almost certainly a spec typo, and refusing it beats
/// allocating gigabytes of schedule.
const MAX_ARRIVALS: f64 = 5_000_000.0;

/// The arrival process of a workload.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalSpec {
    /// Memoryless arrivals: exponential inter-arrival gaps at `rate_hz`.
    Poisson {
        /// Offered request rate, in requests per second.
        rate_hz: f64,
    },
    /// Bursty on/off arrivals, the classical self-similar-traffic construction:
    /// alternating on- and off-periods with heavy-tailed (Pareto) lengths, Poisson
    /// arrivals at `rate_hz` inside on-periods and silence in between. The long-run
    /// offered rate is `rate_hz * mean_on / (mean_on + mean_off)`.
    Bursty {
        /// Request rate inside an on-period, in requests per second.
        rate_hz: f64,
        /// Pareto tail exponent of the period lengths; must exceed 1 so the means
        /// exist (1 < shape ≤ 2 gives the heavy tails that produce self-similarity).
        shape: f64,
        /// Mean on-period length, in seconds.
        mean_on_secs: f64,
        /// Mean off-period length, in seconds.
        mean_off_secs: f64,
    },
}

impl ArrivalSpec {
    /// The rate arrivals are generated at while the source is active.
    fn burst_rate(&self) -> f64 {
        match *self {
            ArrivalSpec::Poisson { rate_hz } | ArrivalSpec::Bursty { rate_hz, .. } => rate_hz,
        }
    }

    /// The long-run offered request rate in requests per second.
    pub fn offered_rate_hz(&self) -> f64 {
        match *self {
            ArrivalSpec::Poisson { rate_hz } => rate_hz,
            ArrivalSpec::Bursty {
                rate_hz,
                mean_on_secs,
                mean_off_secs,
                ..
            } => rate_hz * mean_on_secs / (mean_on_secs + mean_off_secs),
        }
    }
}

/// One open-loop load test: arrival process, duration, job mix, and fan-out.
///
/// See the module docs for the derivation rules that make a workload both
/// reproducible and incapable of perturbing batch results.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Label of the workload; salts its derived streams and names its bench rows.
    pub name: String,
    /// The arrival process.
    pub arrivals: ArrivalSpec,
    /// How long the schedule runs, in seconds.
    pub duration_secs: f64,
    /// Concurrent connections *per worker* the driver spreads requests over.
    pub connections: usize,
    /// Query jobs bundled into each request's batch.
    pub jobs_per_request: usize,
    /// The search every job runs (any table algorithm of [`SearchSpec`]).
    pub search: SearchSpec,
    /// TTL of every job.
    pub ttl: u32,
    /// Seed of the workload's streams — and the batch seed of every request, so a
    /// request's results depend only on `(seed, global job index)`.
    pub seed: u64,
}

impl WorkloadSpec {
    /// Checks every bound the schedule and the driver rely on.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::InvalidSpec`] naming the offending field: empty
    /// name, non-positive or non-finite rate/duration/period means, a Pareto shape
    /// at or below 1, zero connections or jobs, a zero TTL, or an offered
    /// `rate × duration` above the schedule cap.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        const CTX: &str = "workload spec";
        let positive = |value: f64, what: &str| {
            if value.is_finite() && value > 0.0 {
                Ok(())
            } else {
                Err(ScenarioError::invalid(format!(
                    "{CTX}: {what} must be positive and finite, got {value}"
                )))
            }
        };
        if self.name.is_empty() {
            return Err(ScenarioError::invalid(format!(
                "{CTX}: the name must not be empty (it salts the workload's streams)"
            )));
        }
        positive(self.duration_secs, "duration_secs")?;
        match self.arrivals {
            ArrivalSpec::Poisson { rate_hz } => positive(rate_hz, "rate_hz")?,
            ArrivalSpec::Bursty {
                rate_hz,
                shape,
                mean_on_secs,
                mean_off_secs,
            } => {
                positive(rate_hz, "rate_hz")?;
                positive(mean_on_secs, "mean_on_secs")?;
                positive(mean_off_secs, "mean_off_secs")?;
                if !shape.is_finite() || shape <= 1.0 {
                    return Err(ScenarioError::invalid(format!(
                        "{CTX}: the Pareto shape must exceed 1 so period means exist, \
                         got {shape}"
                    )));
                }
            }
        }
        if self.connections == 0 {
            return Err(ScenarioError::invalid(format!(
                "{CTX}: connections must be at least 1"
            )));
        }
        if self.jobs_per_request == 0 {
            return Err(ScenarioError::invalid(format!(
                "{CTX}: jobs_per_request must be at least 1"
            )));
        }
        if self.ttl == 0 {
            return Err(ScenarioError::invalid(format!(
                "{CTX}: ttl must be at least 1"
            )));
        }
        // The *burst* rate bounds the worst case for both processes.
        let worst_case = self.arrivals.burst_rate() * self.duration_secs;
        if worst_case > MAX_ARRIVALS {
            return Err(ScenarioError::invalid(format!(
                "{CTX}: rate_hz × duration_secs ≈ {worst_case:.0} arrivals exceeds the \
                 {MAX_ARRIVALS:.0}-arrival schedule cap"
            )));
        }
        Ok(())
    }

    /// Derives the arrival schedule: send offsets in microseconds from the start of
    /// the run, strictly derived from `(seed, name)` — the same spec always yields
    /// the same schedule, byte for byte, on any host.
    ///
    /// # Errors
    ///
    /// Everything [`WorkloadSpec::validate`] refuses.
    pub fn schedule(&self) -> Result<Vec<u64>, ScenarioError> {
        self.validate()?;
        let mut rng = stream_rng(
            self.seed,
            label_salt(&self.name) ^ label_salt(ARRIVAL_STREAM_LABEL),
            0,
        );
        let duration = self.duration_secs;
        let mut arrivals = Vec::new();
        let exp = |rng: &mut rand::rngs::StdRng, rate: f64| {
            let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
            -u.ln() / rate
        };
        match self.arrivals {
            ArrivalSpec::Poisson { rate_hz } => {
                let mut t = 0f64;
                loop {
                    t += exp(&mut rng, rate_hz);
                    if t >= duration {
                        break;
                    }
                    arrivals.push((t * 1e6) as u64);
                }
            }
            ArrivalSpec::Bursty {
                rate_hz,
                shape,
                mean_on_secs,
                mean_off_secs,
            } => {
                // Pareto with mean m and tail exponent a has minimum m (a - 1) / a.
                let pareto = |rng: &mut rand::rngs::StdRng, mean: f64| {
                    let minimum = mean * (shape - 1.0) / shape;
                    let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
                    minimum / u.powf(1.0 / shape)
                };
                let mut period_start = 0f64;
                while period_start < duration {
                    let on_end = period_start + pareto(&mut rng, mean_on_secs);
                    let mut t = period_start;
                    loop {
                        t += exp(&mut rng, rate_hz);
                        if t >= on_end || t >= duration {
                            break;
                        }
                        arrivals.push((t * 1e6) as u64);
                    }
                    period_start = on_end + pareto(&mut rng, mean_off_secs);
                }
            }
        }
        Ok(arrivals)
    }

    /// Derives request `request_index`'s query sources: `jobs_per_request` node ids,
    /// uniform over `0..node_count`, from the request's own stream. The draw depends
    /// only on `(seed, name, request_index)` — never on timing, shedding, or which
    /// connection carries the request.
    pub fn request_sources(&self, request_index: u64, node_count: u64) -> Vec<u64> {
        let mut rng = stream_rng(
            self.seed,
            label_salt(&self.name) ^ label_salt(SOURCE_STREAM_LABEL),
            usize::try_from(request_index).unwrap_or(usize::MAX),
        );
        (0..self.jobs_per_request)
            .map(|_| rng.gen_range(0..node_count))
            .collect()
    }

    /// Serializes the spec as pretty-printed JSON text.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_pretty_string()
    }

    /// Parses a spec from JSON text (tolerating `//` line comments) and validates it.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Parse`] for malformed JSON,
    /// [`ScenarioError::NestingTooDeep`] for JSON nested past the parser's limit, and
    /// [`ScenarioError::InvalidSpec`] for unknown fields, type errors, or bounds
    /// [`WorkloadSpec::validate`] refuses.
    pub fn parse(text: &str) -> Result<Self, ScenarioError> {
        let spec = WorkloadSpec::from_json(&JsonValue::parse(text)?)?;
        spec.validate()?;
        Ok(spec)
    }
}

json_enum!(ArrivalSpec, "arrival spec", "process", {
    Poisson = "poisson" { rate_hz },
    Bursty = "bursty" { rate_hz, shape, mean_on_secs, mean_off_secs },
});

json_record!(WorkloadSpec, "workload spec", {
    name,
    arrivals,
    duration_secs,
    connections,
    jobs_per_request,
    search,
    ttl,
    seed,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn poisson_spec() -> WorkloadSpec {
        WorkloadSpec {
            name: "smoke".to_string(),
            arrivals: ArrivalSpec::Poisson { rate_hz: 200.0 },
            duration_secs: 2.0,
            connections: 2,
            jobs_per_request: 4,
            search: SearchSpec::Flooding,
            ttl: 4,
            seed: 42,
        }
    }

    fn bursty_spec() -> WorkloadSpec {
        WorkloadSpec {
            name: "bursts".to_string(),
            arrivals: ArrivalSpec::Bursty {
                rate_hz: 500.0,
                shape: 1.5,
                mean_on_secs: 0.2,
                mean_off_secs: 0.3,
            },
            ..poisson_spec()
        }
    }

    #[test]
    fn specs_round_trip_through_json() {
        for spec in [poisson_spec(), bursty_spec()] {
            let text = spec.to_json_string();
            let back = WorkloadSpec::parse(&text).unwrap();
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn schedules_are_seed_deterministic_and_ordered() {
        for spec in [poisson_spec(), bursty_spec()] {
            let first = spec.schedule().unwrap();
            let second = spec.schedule().unwrap();
            assert_eq!(first, second, "same seed must replay the same schedule");
            assert!(!first.is_empty());
            assert!(first.windows(2).all(|w| w[0] <= w[1]));
            assert!(*first.last().unwrap() < 2_000_000);
            let mut reseeded = spec.clone();
            reseeded.seed ^= 1;
            assert_ne!(reseeded.schedule().unwrap(), first);
        }
    }

    #[test]
    fn poisson_schedules_track_the_offered_rate() {
        let spec = poisson_spec();
        let n = spec.schedule().unwrap().len() as f64;
        let expected = spec.arrivals.offered_rate_hz() * spec.duration_secs;
        assert!(
            (n - expected).abs() < expected * 0.25,
            "got {n} arrivals, expected about {expected}"
        );
    }

    #[test]
    fn request_sources_depend_only_on_the_request_index() {
        let spec = poisson_spec();
        let a = spec.request_sources(7, 1000);
        assert_eq!(a.len(), spec.jobs_per_request);
        assert_eq!(a, spec.request_sources(7, 1000));
        assert_ne!(a, spec.request_sources(8, 1000));
        assert!(a.iter().all(|&s| s < 1000));
    }

    #[test]
    fn validation_names_the_offending_field() {
        let cases: Vec<(WorkloadSpec, &str)> = vec![
            (
                WorkloadSpec {
                    name: String::new(),
                    ..poisson_spec()
                },
                "name",
            ),
            (
                WorkloadSpec {
                    arrivals: ArrivalSpec::Poisson { rate_hz: 0.0 },
                    ..poisson_spec()
                },
                "rate_hz",
            ),
            (
                WorkloadSpec {
                    duration_secs: -1.0,
                    ..poisson_spec()
                },
                "duration_secs",
            ),
            (
                WorkloadSpec {
                    connections: 0,
                    ..poisson_spec()
                },
                "connections",
            ),
            (
                WorkloadSpec {
                    jobs_per_request: 0,
                    ..poisson_spec()
                },
                "jobs_per_request",
            ),
            (
                WorkloadSpec {
                    ttl: 0,
                    ..poisson_spec()
                },
                "ttl",
            ),
            (
                WorkloadSpec {
                    arrivals: ArrivalSpec::Bursty {
                        rate_hz: 10.0,
                        shape: 1.0,
                        mean_on_secs: 1.0,
                        mean_off_secs: 1.0,
                    },
                    ..poisson_spec()
                },
                "shape",
            ),
            (
                WorkloadSpec {
                    arrivals: ArrivalSpec::Poisson { rate_hz: 1e9 },
                    ..poisson_spec()
                },
                "cap",
            ),
        ];
        for (spec, what) in cases {
            let err = spec.validate().unwrap_err().to_string();
            assert!(err.contains(what), "error for {what} was: {err}");
        }
    }

    #[test]
    fn unknown_fields_and_processes_are_typed_errors() {
        assert!(WorkloadSpec::parse("{\"nope\": 1}").is_err());
        let mut text = poisson_spec().to_json_string();
        text = text.replace("poisson", "teleport");
        let err = WorkloadSpec::parse(&text).unwrap_err().to_string();
        assert!(err.contains("teleport"), "got: {err}");
    }
}
