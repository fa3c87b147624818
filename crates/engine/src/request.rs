//! The JSONL request/response schema of the batch engine.
//!
//! One request per line. Every field except `kind` has a default, so the
//! minimal useful request is `{"kind": "wvpec-g:8"}`:
//!
//! ```json
//! {"id": "r1", "structure": "bus", "bits": 16, "segments": 2,
//!  "kind": "vpec-full", "analysis": "transient",
//!  "t_stop": 5e-10, "dt": 1e-12, "deadline_ms": 2000,
//!  "faults": {"panic_extraction": false, "stall_ms": 0}}
//! ```
//!
//! Responses are one JSON object per line, `status` either `"ok"` or
//! `"failed"`, with `degraded: true` marking requests that were answered
//! by the windowed fallback or whose solve needed recovery.

use crate::EngineError;
use vpec_core::harness::ModelKind;
use vpec_core::DriveConfig;
use vpec_extract::ExtractionConfig;
use vpec_geometry::{BusSpec, Layout, SpiralSpec};
use vpec_numerics::fault::FaultInjection;
use vpec_trace::json::{escape, parse, JsonValue};

/// The geometry a request asks for, and the one the CLI's
/// `--bits`/`--spiral` family parses into.
#[derive(Debug, Clone, PartialEq)]
pub enum StructureSpec {
    /// A parallel bus.
    Bus {
        /// Line count.
        bits: usize,
        /// Segments per line.
        segments: usize,
        /// Misalignment fraction.
        misalign: f64,
        /// Shield wire every `k` signals, if set.
        shield_every: Option<usize>,
    },
    /// A square spiral inductor.
    Spiral {
        /// Turn count (3 selects the paper's lossy-substrate spiral).
        turns: usize,
    },
}

impl StructureSpec {
    /// Builds the layout with its extraction configuration and drive. A
    /// bus is driven from its first signal net; three turns select the
    /// paper's spiral over a lossy substrate.
    #[must_use]
    pub fn build(&self) -> (Layout, ExtractionConfig, DriveConfig) {
        match *self {
            StructureSpec::Bus {
                bits,
                segments,
                misalign,
                shield_every,
            } => {
                let mut bus = BusSpec::new(bits).segments(segments).misalignment(misalign);
                if let Some(k) = shield_every {
                    bus = bus.shield_every(k);
                }
                let layout = bus.build();
                let first_signal = layout.signal_nets().first().copied().unwrap_or(0);
                (
                    layout,
                    ExtractionConfig::paper_default(),
                    DriveConfig::paper_default().aggressors(vec![first_signal]),
                )
            }
            StructureSpec::Spiral { turns } => {
                let spec = if turns == 3 {
                    SpiralSpec::paper_three_turn()
                } else {
                    SpiralSpec::new(turns)
                };
                let cfg = match spec.substrate_spec() {
                    Some(sub) => ExtractionConfig::paper_default().with_substrate(sub),
                    None => ExtractionConfig::paper_default(),
                };
                (spec.build(), cfg, DriveConfig::paper_default())
            }
        }
    }
}

/// The analysis a request asks for.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalysisSpec {
    /// A fixed-step transient (the crosstalk experiment).
    Transient {
        /// End time, seconds.
        t_stop: f64,
        /// Step size, seconds.
        dt: f64,
    },
    /// A logarithmic AC sweep.
    Ac {
        /// Start frequency, hertz.
        f_start: f64,
        /// Stop frequency, hertz.
        f_stop: f64,
        /// Points per decade.
        points_per_decade: usize,
    },
    /// Build the model only (extraction + netlist statistics).
    BuildOnly,
}

impl AnalysisSpec {
    /// Planned transient step count, for the step budget (`None` for
    /// non-transient requests).
    pub fn steps(&self) -> Option<usize> {
        match self {
            AnalysisSpec::Transient { t_stop, dt } => {
                // `.round()` matches the integrator's `t + dt/2 < t_stop`
                // loop condition (and avoids 1e-9/1e-12 ceiling to 1001).
                if *dt > 0.0 && t_stop.is_finite() {
                    Some((t_stop / dt).round() as usize)
                } else {
                    None
                }
            }
            _ => None,
        }
    }
}

/// One parsed scenario request.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRequest {
    /// Request id, echoed in the response (defaults to `line<N>`).
    pub id: String,
    /// Geometry under test.
    pub structure: StructureSpec,
    /// Model kind to build.
    pub kind: ModelKind,
    /// Analysis to run on the built model.
    pub analysis: AnalysisSpec,
    /// Injected faults (tests; disarmed by default).
    pub faults: FaultInjection,
    /// Per-request wall-clock deadline override, milliseconds.
    pub deadline_ms: Option<u64>,
}

fn get_usize(v: &JsonValue, key: &str, default: usize) -> Result<usize, EngineError> {
    match v.get(key) {
        None | Some(JsonValue::Null) => Ok(default),
        Some(x) => x
            .as_u64()
            .map(|n| n as usize)
            .ok_or_else(|| EngineError::BadRequest {
                message: format!("{key} must be a non-negative integer"),
            }),
    }
}

fn get_f64(v: &JsonValue, key: &str, default: f64) -> Result<f64, EngineError> {
    match v.get(key) {
        None | Some(JsonValue::Null) => Ok(default),
        Some(x) => x.as_f64().ok_or_else(|| EngineError::BadRequest {
            message: format!("{key} must be a number"),
        }),
    }
}

fn get_bool(v: &JsonValue, key: &str) -> Result<bool, EngineError> {
    match v.get(key) {
        None | Some(JsonValue::Null) => Ok(false),
        Some(JsonValue::Bool(b)) => Ok(*b),
        Some(_) => Err(EngineError::BadRequest {
            message: format!("{key} must be a boolean"),
        }),
    }
}

impl ScenarioRequest {
    /// Parses one JSONL request line. `index` (0-based line number) names
    /// requests that carry no `id`.
    ///
    /// # Errors
    ///
    /// [`EngineError::BadRequest`] for malformed JSON or schema
    /// violations.
    pub fn parse_line(line: &str, index: usize) -> Result<Self, EngineError> {
        let v = parse(line).map_err(|e| EngineError::BadRequest {
            message: format!("invalid JSON: {e}"),
        })?;
        if !matches!(v, JsonValue::Obj(_)) {
            return Err(EngineError::BadRequest {
                message: "request must be a JSON object".into(),
            });
        }
        let id = v
            .get("id")
            .and_then(JsonValue::as_str)
            .map(str::to_string)
            .unwrap_or_else(|| format!("line{}", index + 1));

        let structure = match v
            .get("structure")
            .and_then(JsonValue::as_str)
            .unwrap_or("bus")
        {
            "bus" => {
                let bits = get_usize(&v, "bits", 8)?;
                if bits == 0 {
                    return Err(EngineError::BadRequest {
                        message: "bits must be at least 1".into(),
                    });
                }
                let shield = get_usize(&v, "shield", 0)?;
                StructureSpec::Bus {
                    bits,
                    segments: get_usize(&v, "segments", 1)?.max(1),
                    misalign: get_f64(&v, "misalign", 0.0)?,
                    shield_every: if shield == 0 { None } else { Some(shield) },
                }
            }
            "spiral" => {
                let turns = get_usize(&v, "turns", 3)?;
                if turns == 0 {
                    return Err(EngineError::BadRequest {
                        message: "turns must be at least 1".into(),
                    });
                }
                StructureSpec::Spiral { turns }
            }
            other => {
                return Err(EngineError::BadRequest {
                    message: format!("unknown structure: {other} (use bus or spiral)"),
                })
            }
        };

        let kind_tok = v
            .get("kind")
            .and_then(JsonValue::as_str)
            .unwrap_or("vpec-full");
        let kind =
            ModelKind::parse(kind_tok).map_err(|message| EngineError::BadRequest { message })?;

        let analysis = match v
            .get("analysis")
            .and_then(JsonValue::as_str)
            .unwrap_or("transient")
        {
            "transient" => {
                let t_stop = get_f64(&v, "t_stop", 0.5e-9)?;
                let dt = get_f64(&v, "dt", 1e-12)?;
                if !(t_stop > 0.0 && dt > 0.0 && t_stop.is_finite() && dt.is_finite()) {
                    return Err(EngineError::BadRequest {
                        message: "t_stop and dt must be positive and finite".into(),
                    });
                }
                AnalysisSpec::Transient { t_stop, dt }
            }
            "ac" => {
                let f_start = get_f64(&v, "f_start", 1e6)?;
                let f_stop = get_f64(&v, "f_stop", 1e10)?;
                let ppd = get_usize(&v, "points_per_decade", 4)?;
                if !(f_start > 0.0 && f_stop > f_start && ppd > 0) {
                    return Err(EngineError::BadRequest {
                        message: "ac sweep needs 0 < f_start < f_stop and points_per_decade ≥ 1"
                            .into(),
                    });
                }
                AnalysisSpec::Ac {
                    f_start,
                    f_stop,
                    points_per_decade: ppd,
                }
            }
            "none" | "build" => AnalysisSpec::BuildOnly,
            other => {
                return Err(EngineError::BadRequest {
                    message: format!("unknown analysis: {other} (use transient, ac or none)"),
                })
            }
        };

        let faults = match v.get("faults") {
            None | Some(JsonValue::Null) => FaultInjection::none(),
            Some(f @ JsonValue::Obj(_)) => {
                let poison = get_usize(f, "poison_step", usize::MAX)?;
                let stall = get_usize(f, "stall_ms", 0)?;
                FaultInjection {
                    poison_step: if poison == usize::MAX {
                        None
                    } else {
                        Some(poison)
                    },
                    panic_extraction: get_bool(f, "panic_extraction")?,
                    panic_engine: get_bool(f, "panic_engine")?,
                    stall_ms: if stall == 0 { None } else { Some(stall as u64) },
                }
            }
            Some(_) => {
                return Err(EngineError::BadRequest {
                    message: "faults must be an object".into(),
                })
            }
        };

        let deadline = get_usize(&v, "deadline_ms", 0)?;
        Ok(ScenarioRequest {
            id,
            structure,
            kind,
            analysis,
            faults,
            deadline_ms: if deadline == 0 {
                None
            } else {
                Some(deadline as u64)
            },
        })
    }
}

/// One request's outcome, serializable as a JSONL response line.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResponse {
    /// Echo of the request id.
    pub id: String,
    /// `true` when a model was built and the analysis (if any) completed —
    /// possibly via the degraded windowed fallback.
    pub ok: bool,
    /// Label of the kind the request asked for.
    pub requested: String,
    /// Label of the kind actually run (differs from `requested` only for
    /// the degraded fallback); `None` when nothing ran.
    pub ran: Option<String>,
    /// Degradation marker: the windowed fallback answered, or the solve
    /// itself reported degraded operation (repair/retry/audit).
    pub degraded: bool,
    /// Why the fallback fired (`"deadline"` / `"budget"`), when it did.
    pub degraded_reason: Option<String>,
    /// Attempts spent on the requested kind (1 = first try succeeded).
    pub attempts: usize,
    /// `true` when the model came out of the geometry cache.
    pub cache_hit: bool,
    /// Wall-clock milliseconds spent on this request, end to end.
    pub elapsed_ms: f64,
    /// Circuit element count of the built model.
    pub elements: Option<usize>,
    /// Peak far-end |V| over all probed nets, millivolts (transient) or
    /// peak |H| in dB-free magnitude (AC).
    pub peak_mv: Option<f64>,
    /// Human-readable solve-report lines (repairs, retries, audit).
    pub notes: Vec<String>,
    /// The terminal failure, when `ok` is false.
    pub error: Option<EngineError>,
}

fn push_num(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v}"));
    } else {
        out.push_str("null");
    }
}

impl ScenarioResponse {
    /// Renders the response as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(160);
        out.push_str(&format!(
            "{{\"id\":\"{}\",\"status\":\"{}\",\"requested\":\"{}\"",
            escape(&self.id),
            if self.ok { "ok" } else { "failed" },
            escape(&self.requested),
        ));
        if let Some(ran) = &self.ran {
            out.push_str(&format!(",\"ran\":\"{}\"", escape(ran)));
        }
        out.push_str(&format!(",\"degraded\":{}", self.degraded));
        if let Some(reason) = &self.degraded_reason {
            out.push_str(&format!(",\"degraded_reason\":\"{}\"", escape(reason)));
        }
        out.push_str(&format!(
            ",\"attempts\":{},\"cache_hit\":{},\"elapsed_ms\":",
            self.attempts, self.cache_hit
        ));
        push_num(&mut out, self.elapsed_ms);
        if let Some(n) = self.elements {
            out.push_str(&format!(",\"elements\":{n}"));
        }
        if let Some(p) = self.peak_mv {
            out.push_str(",\"peak_mv\":");
            push_num(&mut out, p);
        }
        if !self.notes.is_empty() {
            out.push_str(",\"notes\":[");
            for (i, n) in self.notes.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{}\"", escape(n)));
            }
            out.push(']');
        }
        if let Some(e) = &self.error {
            out.push_str(&format!(
                ",\"error\":{{\"category\":\"{}\",\"message\":\"{}\"}}",
                e.category(),
                escape(&e.to_string())
            ));
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_request_defaults() {
        let r = ScenarioRequest::parse_line(r#"{"kind":"wvpec-g:4"}"#, 2).unwrap();
        assert_eq!(r.id, "line3");
        assert_eq!(r.kind, ModelKind::WVpecGeometric { b: 4 });
        assert_eq!(
            r.structure,
            StructureSpec::Bus {
                bits: 8,
                segments: 1,
                misalign: 0.0,
                shield_every: None
            }
        );
        assert!(matches!(r.analysis, AnalysisSpec::Transient { .. }));
        assert_eq!(r.faults, FaultInjection::none());
        assert_eq!(r.deadline_ms, None);
        // Request files from before the backend override and the factor
        // fault went away still run: `"solver"` and `"fail_primary_factor"`
        // are unknown keys like any other.
        let legacy = r#"{"kind":"wvpec-g:4","solver":"dense"}"#;
        assert_eq!(ScenarioRequest::parse_line(legacy, 2).unwrap(), r);
        let legacy = r#"{"kind":"wvpec-g:4","faults":{"fail_primary_factor":true}}"#;
        assert_eq!(ScenarioRequest::parse_line(legacy, 2).unwrap(), r);
    }

    #[test]
    fn full_request_round_trips() {
        let line = r#"{"id":"x","structure":"spiral","turns":2,"kind":"peec",
            "analysis":"ac","f_start":1e6,"f_stop":1e9,"points_per_decade":2,
            "deadline_ms":500,"faults":{"panic_engine":true,"stall_ms":5}}"#;
        let r = ScenarioRequest::parse_line(&line.replace('\n', " "), 0).unwrap();
        assert_eq!(r.id, "x");
        assert_eq!(r.structure, StructureSpec::Spiral { turns: 2 });
        assert_eq!(r.kind, ModelKind::Peec);
        assert_eq!(
            r.analysis,
            AnalysisSpec::Ac {
                f_start: 1e6,
                f_stop: 1e9,
                points_per_decade: 2
            }
        );
        assert_eq!(r.deadline_ms, Some(500));
        assert!(r.faults.panic_engine);
        assert_eq!(r.faults.stall_ms, Some(5));
        assert!(!r.faults.panic_extraction);
    }

    #[test]
    fn steps_budgeting() {
        let r = ScenarioRequest::parse_line(r#"{"t_stop":1e-9,"dt":1e-12}"#, 0).unwrap();
        assert_eq!(r.analysis.steps(), Some(1000));
        let r = ScenarioRequest::parse_line(r#"{"analysis":"none"}"#, 0).unwrap();
        assert_eq!(r.analysis.steps(), None);
    }

    #[test]
    fn schema_violations_are_typed() {
        for bad in [
            "not json",
            "[1,2]",
            r#"{"kind":"nope"}"#,
            r#"{"structure":"torus"}"#,
            r#"{"bits":0}"#,
            r#"{"analysis":"dc"}"#,
            r#"{"t_stop":-1.0}"#,
            r#"{"analysis":"ac","f_start":5e9,"f_stop":1e6}"#,
            r#"{"faults":"all"}"#,
            r#"{"bits":"eight"}"#,
        ] {
            let e = ScenarioRequest::parse_line(bad, 0).unwrap_err();
            assert_eq!(e.category(), "bad-request", "{bad} must be a schema error");
        }
    }

    #[test]
    fn response_lines_are_valid_json() {
        let ok = ScenarioResponse {
            id: "a\"b".into(),
            ok: true,
            requested: "full VPEC".into(),
            ran: Some("gwVPEC(b=4)".into()),
            degraded: true,
            degraded_reason: Some("deadline".into()),
            attempts: 2,
            cache_hit: true,
            elapsed_ms: 12.5,
            elements: Some(42),
            peak_mv: Some(3.25),
            notes: vec!["passivity repair: x".into()],
            error: None,
        };
        let v = parse(&ok.to_json_line()).unwrap();
        assert_eq!(v.get("status").and_then(JsonValue::as_str), Some("ok"));
        assert_eq!(v.get("id").and_then(JsonValue::as_str), Some("a\"b"));
        assert_eq!(v.get("degraded"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("elements").and_then(JsonValue::as_u64), Some(42));

        let failed = ScenarioResponse {
            id: "r".into(),
            ok: false,
            requested: "PEEC".into(),
            ran: None,
            degraded: false,
            degraded_reason: None,
            attempts: 3,
            cache_hit: false,
            elapsed_ms: f64::NAN,
            elements: None,
            peak_mv: None,
            notes: vec![],
            error: Some(EngineError::RequestPanicked {
                message: "boom \"q\"".into(),
            }),
        };
        let v = parse(&failed.to_json_line()).unwrap();
        assert_eq!(v.get("status").and_then(JsonValue::as_str), Some("failed"));
        assert_eq!(v.get("elapsed_ms"), Some(&JsonValue::Null));
        let err = v.get("error").unwrap();
        assert_eq!(
            err.get("category").and_then(JsonValue::as_str),
            Some("panic")
        );
    }
}
