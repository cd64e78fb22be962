//! Typed startup errors: configuration validation and session
//! construction failures, returned from [`crate::Server::start`]
//! instead of panicking inside builders.

use dk_core::DarknightError;

/// A [`crate::ServerConfig`] field that cannot describe a runnable
/// deployment. Builders accept any value; validation happens once, at
/// [`crate::Server::start`], so configs can be assembled piecemeal
/// (e.g. from flags) without panicking halfway through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `workers == 0` — a server needs at least one pool worker.
    ZeroWorkers,
    /// `queue_capacity == 0` — admission control needs a queue.
    ZeroQueueCapacity,
    /// `pipeline_lanes == 0` — an engine needs at least one TEE lane.
    ZeroPipelineLanes,
    /// The autoscale range is empty or unusable: `min == 0` or
    /// `min > max`.
    AutoscaleRange {
        /// Configured lower bound.
        min: usize,
        /// Configured upper bound.
        max: usize,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroWorkers => write!(f, "a server needs at least one worker"),
            ConfigError::ZeroQueueCapacity => write!(f, "ingress queue needs capacity"),
            ConfigError::ZeroPipelineLanes => write!(f, "an engine needs at least one lane"),
            ConfigError::AutoscaleRange { min, max } => write!(
                f,
                "autoscale range [{min}, {max}] is invalid (need 1 <= min <= max)"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Everything [`crate::Server::start`] can fail with: a bad
/// configuration, or a session-construction error from the engines it
/// builds (insufficient fleet, unquantizable weights, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The [`crate::ServerConfig`] failed validation.
    Config(ConfigError),
    /// Engine/session construction failed.
    Session(DarknightError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Config(e) => write!(f, "invalid server config: {e}"),
            ServeError::Session(e) => write!(f, "session construction failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Config(e) => Some(e),
            ServeError::Session(e) => Some(e),
        }
    }
}

impl From<ConfigError> for ServeError {
    fn from(e: ConfigError) -> Self {
        ServeError::Config(e)
    }
}

impl From<DarknightError> for ServeError {
    fn from(e: DarknightError) -> Self {
        ServeError::Session(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = ServeError::from(ConfigError::AutoscaleRange { min: 3, max: 2 });
        assert!(e.to_string().contains("[3, 2]"));
        assert!(std::error::Error::source(&e).is_some());
        let e = ServeError::from(DarknightError::InsufficientWorkers { required: 5, available: 2 });
        assert!(e.to_string().contains("needs 5"));
    }
}
