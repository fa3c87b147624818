//! Analysis results: transient waveforms and AC sweeps.
//!
//! Accessors return `Result` instead of panicking: asking for a node the
//! analysis did not record is an ordinary runtime condition (a typo'd
//! probe list, a net name from a different layout), not a programming
//! error, so it surfaces as [`CircuitError::NodeNotRecorded`].

use crate::diagnostics::FactorDiagnostics;
use crate::elements::ElementId;
use crate::error::CircuitError;
use crate::netlist::NodeId;
use std::collections::HashMap;
use vpec_numerics::Complex64;

/// How the stored columns of a [`TransientResult`] map back to circuit
/// quantities.
#[derive(Debug, Clone)]
pub(crate) enum ResultMapping {
    /// Every MNA unknown was stored: nodes first, then branch currents.
    Full {
        /// Non-ground node count.
        n_nodes: usize,
        /// Branch unknown column of each element, indexed by element
        /// (`None` for non-branch elements).
        branch_of: Vec<Option<usize>>,
    },
    /// Only selected node voltages were stored (big-circuit mode).
    Probes(HashMap<usize, usize>),
}

impl ResultMapping {
    /// Column holding the given non-ground node's voltage.
    fn node_column(&self, node: NodeId) -> Result<usize, CircuitError> {
        match self {
            ResultMapping::Full { n_nodes, .. } => {
                if node.0 - 1 < *n_nodes {
                    Ok(node.0 - 1)
                } else {
                    Err(CircuitError::NodeNotRecorded { node: node.0 })
                }
            }
            ResultMapping::Probes(map) => map
                .get(&node.0)
                .copied()
                .ok_or(CircuitError::NodeNotRecorded { node: node.0 }),
        }
    }
}

/// Result of a transient analysis.
///
/// By default every MNA unknown is recorded at every time point; for large
/// circuits, [`crate::TransientSpec::probes`] restricts recording to
/// selected nodes.
#[derive(Debug, Clone)]
pub struct TransientResult {
    pub(crate) times: Vec<f64>,
    /// `data[step][column]`.
    pub(crate) data: Vec<Vec<f64>>,
    pub(crate) mapping: ResultMapping,
}

impl TransientResult {
    /// The simulated time points (seconds), including `t = 0`.
    pub fn time(&self) -> &[f64] {
        &self.times
    }

    /// Number of time points.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` if the result holds no time points.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Voltage waveform of a node (ground returns all zeros).
    ///
    /// # Errors
    ///
    /// [`CircuitError::NodeNotRecorded`] if the node was not recorded
    /// (out of range, or not in the probe list when probing was
    /// restricted).
    pub fn voltage(&self, node: NodeId) -> Result<Vec<f64>, CircuitError> {
        if node.is_ground() {
            return Ok(vec![0.0; self.times.len()]);
        }
        let col = self.mapping.node_column(node)?;
        Ok(self.data.iter().map(|row| row[col]).collect())
    }

    /// Branch-current waveform of a branch element (V source, inductor,
    /// VCVS, CCVS). Returns `None` for non-branch elements or when only
    /// probed nodes were recorded.
    pub fn branch_current(&self, element: ElementId) -> Option<Vec<f64>> {
        match &self.mapping {
            ResultMapping::Full { branch_of, .. } => {
                let col = branch_of.get(element.0).copied().flatten()?;
                Some(self.data.iter().map(|row| row[col]).collect())
            }
            ResultMapping::Probes(_) => None,
        }
    }

    /// Voltage at a single `(step, node)` point.
    ///
    /// # Errors
    ///
    /// [`CircuitError::NodeNotRecorded`] if the node was not recorded,
    /// [`CircuitError::InvalidSpec`] if `step` is out of range.
    pub fn voltage_at(&self, step: usize, node: NodeId) -> Result<f64, CircuitError> {
        if step >= self.data.len() {
            return Err(CircuitError::InvalidSpec {
                reason: "time step out of range for this result",
            });
        }
        if node.is_ground() {
            return Ok(0.0);
        }
        let col = self.mapping.node_column(node)?;
        Ok(self.data[step][col])
    }
}

/// Result of an AC (frequency-domain) analysis.
#[derive(Debug, Clone)]
pub struct AcResult {
    pub(crate) freqs: Vec<f64>,
    /// `data[freq_idx][unknown]`.
    pub(crate) data: Vec<Vec<Complex64>>,
    pub(crate) n_nodes: usize,
    /// The sweep's factor evidence (see [`AcResult::factor_diagnostics`]).
    pub(crate) factor: FactorDiagnostics,
}

impl AcResult {
    /// The swept frequencies (hertz).
    pub fn frequency(&self) -> &[f64] {
        &self.freqs
    }

    /// Dimension of the complex MNA system each point factored.
    pub fn dim(&self) -> usize {
        self.data.first().map_or(0, Vec::len)
    }

    /// The diagnostics of the sweep's largest factor: the first point
    /// whose factor holds the most entries.
    pub fn factor_diagnostics(&self) -> &FactorDiagnostics {
        &self.factor
    }

    /// Complex node voltage across the sweep (ground returns zeros).
    ///
    /// # Errors
    ///
    /// [`CircuitError::NodeNotRecorded`] if the node does not belong to
    /// the simulated circuit.
    pub fn voltage(&self, node: NodeId) -> Result<Vec<Complex64>, CircuitError> {
        if node.is_ground() {
            return Ok(vec![Complex64::ZERO; self.freqs.len()]);
        }
        let idx = node.0 - 1;
        if idx >= self.n_nodes {
            return Err(CircuitError::NodeNotRecorded { node: node.0 });
        }
        Ok(self.data.iter().map(|row| row[idx]).collect())
    }

    /// Voltage magnitude across the sweep.
    ///
    /// # Errors
    ///
    /// Same conditions as [`AcResult::voltage`].
    pub fn magnitude(&self, node: NodeId) -> Result<Vec<f64>, CircuitError> {
        Ok(self.voltage(node)?.iter().map(|z| z.abs()).collect())
    }

    /// Voltage magnitude in decibels (`20·log₁₀|V|`).
    ///
    /// # Errors
    ///
    /// Same conditions as [`AcResult::voltage`].
    pub fn magnitude_db(&self, node: NodeId) -> Result<Vec<f64>, CircuitError> {
        Ok(self
            .voltage(node)?
            .iter()
            .map(|z| 20.0 * z.abs().max(1e-300).log10())
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TransientResult {
        TransientResult {
            times: vec![0.0, 1.0, 2.0],
            data: vec![vec![0.0, 10.0], vec![1.0, 20.0], vec![2.0, 30.0]],
            mapping: ResultMapping::Full {
                n_nodes: 1,
                branch_of: vec![None, None, None, None, None, Some(1)],
            },
        }
    }

    #[test]
    fn full_accessors() {
        let r = sample();
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
        assert_eq!(r.voltage(NodeId(1)).unwrap(), vec![0.0, 1.0, 2.0]);
        assert_eq!(r.voltage(NodeId(0)).unwrap(), vec![0.0; 3]);
        assert_eq!(r.branch_current(ElementId(5)), Some(vec![10.0, 20.0, 30.0]));
        assert_eq!(r.branch_current(ElementId(0)), None);
        assert_eq!(r.voltage_at(2, NodeId(1)).unwrap(), 2.0);
        assert_eq!(r.voltage_at(2, NodeId(0)).unwrap(), 0.0);
    }

    #[test]
    fn probe_mapping() {
        let r = TransientResult {
            times: vec![0.0, 1.0],
            data: vec![vec![7.0], vec![8.0]],
            mapping: ResultMapping::Probes(HashMap::from([(3usize, 0usize)])),
        };
        assert_eq!(r.voltage(NodeId(3)).unwrap(), vec![7.0, 8.0]);
        assert_eq!(r.branch_current(ElementId(0)), None);
    }

    #[test]
    fn unprobed_node_is_typed_error() {
        let r = TransientResult {
            times: vec![0.0],
            data: vec![vec![7.0]],
            mapping: ResultMapping::Probes(HashMap::from([(3usize, 0usize)])),
        };
        assert!(matches!(
            r.voltage(NodeId(2)),
            Err(CircuitError::NodeNotRecorded { node: 2 })
        ));
        assert!(matches!(
            r.voltage_at(0, NodeId(2)),
            Err(CircuitError::NodeNotRecorded { node: 2 })
        ));
    }

    #[test]
    fn out_of_range_node_is_typed_error() {
        let r = sample();
        assert!(matches!(
            r.voltage(NodeId(9)),
            Err(CircuitError::NodeNotRecorded { node: 9 })
        ));
        assert!(matches!(
            r.voltage_at(99, NodeId(1)),
            Err(CircuitError::InvalidSpec { .. })
        ));
    }

    #[test]
    fn ac_magnitudes() {
        let r = AcResult {
            freqs: vec![1.0, 10.0],
            data: vec![
                vec![Complex64::new(3.0, 4.0)],
                vec![Complex64::new(0.0, 1.0)],
            ],
            n_nodes: 1,
            factor: FactorDiagnostics::default(),
        };
        assert_eq!(r.frequency(), &[1.0, 10.0]);
        assert_eq!(r.magnitude(NodeId(1)).unwrap(), vec![5.0, 1.0]);
        let db = r.magnitude_db(NodeId(1)).unwrap();
        assert!((db[0] - 20.0 * 5.0f64.log10()).abs() < 1e-12);
        assert_eq!(r.voltage(NodeId(0)).unwrap()[0], Complex64::ZERO);
        assert!(matches!(
            r.voltage(NodeId(4)),
            Err(CircuitError::NodeNotRecorded { node: 4 })
        ));
    }
}
