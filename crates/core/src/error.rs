//! Error type for the experiment drivers.

use std::fmt;

/// Errors produced while capturing a workload or running a study driver.
///
/// Mirrors [`phylo::error::PhyloError`]: a plain enum with structured
/// payloads, a human-readable [`fmt::Display`] and [`std::error::Error`], so
/// the table/figure binaries can print a diagnosis and exit nonzero instead
/// of unwinding.
#[derive(Debug, Clone, PartialEq)]
pub enum ExperimentError {
    /// A [`crate::experiment::WorkloadSpec`] field was out of its domain.
    InvalidSpec { field: &'static str, value: usize, reason: &'static str },
    /// A captured workload contains no kernel events (nothing to price).
    EmptyTrace,
    /// The captured inference produced a non-finite log-likelihood.
    NonFiniteLikelihood(f64),
    /// A study parameter was out of its valid domain.
    InvalidParameter { name: &'static str, value: usize, reason: &'static str },
    /// An underlying phylogenetic-inference error.
    Phylo(phylo::error::PhyloError),
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::InvalidSpec { field, value, reason } => {
                write!(f, "invalid workload spec: {field} = {value}: {reason}")
            }
            ExperimentError::EmptyTrace => {
                write!(f, "workload trace is empty: no kernel invocations to price")
            }
            ExperimentError::NonFiniteLikelihood(lnl) => {
                write!(f, "captured inference produced a non-finite log-likelihood ({lnl})")
            }
            ExperimentError::InvalidParameter { name, value, reason } => {
                write!(f, "invalid value {value} for parameter {name}: {reason}")
            }
            ExperimentError::Phylo(e) => write!(f, "phylogenetic inference failed: {e}"),
        }
    }
}

impl std::error::Error for ExperimentError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExperimentError::Phylo(e) => Some(e),
            _ => None,
        }
    }
}

impl From<phylo::error::PhyloError> for ExperimentError {
    fn from(e: phylo::error::PhyloError) -> Self {
        ExperimentError::Phylo(e)
    }
}

/// Crate-wide result alias for the experiment drivers.
pub type Result<T> = std::result::Result<T, ExperimentError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = ExperimentError::InvalidSpec { field: "n_taxa", value: 2, reason: "need ≥ 4" };
        assert!(e.to_string().contains("n_taxa"));
        assert!(ExperimentError::EmptyTrace.to_string().contains("empty"));
        assert!(ExperimentError::NonFiniteLikelihood(f64::NAN).to_string().contains("NaN"));
    }

    #[test]
    fn phylo_errors_convert_and_chain() {
        let inner = phylo::error::PhyloError::EmptyAlignment;
        let e: ExperimentError = inner.clone().into();
        assert_eq!(e, ExperimentError::Phylo(inner));
        assert!(std::error::Error::source(&e).is_some());
    }
}
