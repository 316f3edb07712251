//! The policy types every deployment shares: [`ServerConfig`],
//! [`FormPolicy`], [`ClientId`] and the `(policy, d)` → form mapping. The
//! deployment itself — one shard or many — is a [`crate::Cluster`].

use crate::adaptive::AdaptiveController;
use crate::forms::FormMode;

/// Identifier the server uses to keep per-client adaptive state.
pub type ClientId = u32;

/// Which proactive-caching variant the server implements (§6.4): full form
/// (FPRO), normal compact form (CPRO) or adaptive d⁺-level (APRO).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FormPolicy {
    Full,
    Compact,
    Adaptive,
}

impl FormPolicy {
    pub fn name(&self) -> &'static str {
        match self {
            FormPolicy::Full => "FPRO",
            FormPolicy::Compact => "CPRO",
            FormPolicy::Adaptive => "APRO",
        }
    }
}

/// Server-side configuration.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    pub form: FormPolicy,
    /// Adaptive sensitivity `s` (Table 6.1: 20 %).
    pub sensitivity: f64,
    /// Hard cap on retained update-log history, in epochs. Regardless of
    /// client tracking, `apply_updates` prunes the deployment's one log of
    /// change records this many epochs old or older — in every shard, the
    /// ones the batch never touched included — so the log stays bounded
    /// even with no connected clients; a client stamped below the pruned
    /// horizon is refused with a full refresh. The fleet low-water mark
    /// (minimum last-synced epoch over live clients) prunes *earlier*
    /// whenever the whole fleet is caught up.
    pub max_update_history: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            form: FormPolicy::Adaptive,
            sensitivity: 0.2,
            max_update_history: 1024,
        }
    }
}

impl ServerConfig {
    /// Rejects configurations that would silently misbehave instead of
    /// erroring: a sensitivity that is negative, NaN or infinite inverts,
    /// breaks or freezes §4.3's band, and a zero-epoch history window
    /// full-refreshes every versioned contact. Called through
    /// [`ClusterConfig::validate`] by every constructor, which panic with
    /// the returned message.
    ///
    /// [`ClusterConfig::validate`]: crate::ClusterConfig::validate
    pub fn validate(&self) -> Result<(), String> {
        if !self.sensitivity.is_finite() || self.sensitivity < 0.0 {
            return Err(format!(
                "ServerConfig::sensitivity must be finite and ≥ 0 (got {}): a negative or NaN \
                 band inverts or breaks §4.3's fmr comparison, and an infinite one never moves d",
                self.sensitivity
            ));
        }
        if self.max_update_history == 0 {
            return Err(
                "ServerConfig::max_update_history must be ≥ 1: with zero retained epochs \
                 every versioned contact would be refused with a full refresh"
                    .to_string(),
            );
        }
        Ok(())
    }
}

/// The form `Ir` is built in for `client` under `policy`: the one
/// `(FormPolicy, d)` → [`FormMode`] mapping. Only the adaptive policy
/// reads the client's `d`.
pub(crate) fn form_mode(
    policy: FormPolicy,
    adaptive: &AdaptiveController,
    client: ClientId,
) -> FormMode {
    match policy {
        FormPolicy::Full => FormMode::Full,
        FormPolicy::Compact => FormMode::COMPACT,
        FormPolicy::Adaptive => FormMode::DLevel(adaptive.d(client)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation_names_the_offending_field() {
        type Edit = fn(&mut ServerConfig);
        let validate = |edit: Edit| {
            let mut cfg = ServerConfig::default();
            edit(&mut cfg);
            cfg.validate()
        };
        // The default, and every §4.3 setting a figure or example uses.
        let valid: [Edit; 3] = [|_| {}, |c| c.sensitivity = 0.0, |c| c.sensitivity = 10.0];
        for edit in valid {
            assert!(validate(edit).is_ok());
        }
        let invalid: [(Edit, &str); 4] = [
            (|c| c.sensitivity = -0.1, "sensitivity"),
            (|c| c.sensitivity = f64::NAN, "sensitivity"),
            (|c| c.sensitivity = f64::INFINITY, "sensitivity"),
            (|c| c.max_update_history = 0, "max_update_history"),
        ];
        for (edit, field) in invalid {
            let err = validate(edit).unwrap_err();
            assert!(err.starts_with(&format!("ServerConfig::{field} ")), "{err}");
        }
    }
}
