//! Multi-tenant hosting: many named graphs, one process.
//!
//! A [`ServiceRegistry`] owns one [`HcdService`] per tenant. Isolation
//! is by construction, not by policy:
//!
//! * each tenant has its **own** `EpochCell` (generations are
//!   per-tenant counters that never interact),
//! * its own WAL/checkpoint directory (`<base>/<tenant>/` — two
//!   tenants can never write the same file),
//! * its own `serve.<tenant>.*` counter namespace (interned once via
//!   [`hcd_par::intern()`]), and
//! * its own optional [`QueryCache`](crate::cache::QueryCache) — cache
//!   keys never leave the service that owns them, so cross-tenant
//!   cache bleed is structurally impossible.
//!
//! Tenant names are validated (`[a-z0-9_-]`, nonempty, ≤ 64 bytes) so
//! the composed metric names and directory paths stay sane.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

use hcd_graph::CsrGraph;
use hcd_par::Executor;

use crate::cache::CacheConfig;
use crate::service::{DurabilityConfig, HcdService, ServeError};

/// Why a tenant registration was refused.
#[derive(Debug)]
pub enum RegistryError {
    /// A tenant by that name already exists.
    DuplicateTenant(String),
    /// The name failed validation (empty, too long, or a character
    /// outside `[a-z0-9_-]`).
    InvalidName(String),
    /// Building the tenant's service failed.
    Serve(ServeError),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::DuplicateTenant(n) => write!(f, "tenant {n:?} is already registered"),
            RegistryError::InvalidName(n) => write!(
                f,
                "invalid tenant name {n:?} (want nonempty [a-z0-9_-], at most 64 bytes)"
            ),
            RegistryError::Serve(e) => write!(f, "{e}"),
        }
    }
}

impl From<ServeError> for RegistryError {
    fn from(e: ServeError) -> Self {
        RegistryError::Serve(e)
    }
}

/// Per-tenant build options.
#[derive(Debug, Clone, Copy, Default)]
pub struct TenantConfig {
    /// Arm the generation-keyed memo cache with this sizing.
    pub cache: Option<CacheConfig>,
    /// Make the tenant durable (requires the registry to have a base
    /// directory; the tenant gets `<base>/<tenant>/`).
    pub durability: Option<DurabilityConfig>,
}

/// See the module docs.
pub struct ServiceRegistry {
    tenants: BTreeMap<String, Arc<HcdService>>,
    /// Root for per-tenant durability directories; `None` for a purely
    /// in-memory registry (durable registrations are then refused).
    base_dir: Option<PathBuf>,
}

fn valid_tenant_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_' || b == b'-')
}

impl ServiceRegistry {
    /// An empty, in-memory registry.
    pub fn new() -> Self {
        ServiceRegistry {
            tenants: BTreeMap::new(),
            base_dir: None,
        }
    }

    /// An empty registry whose durable tenants live under `base_dir`.
    pub fn with_base_dir<P: Into<PathBuf>>(base_dir: P) -> Self {
        ServiceRegistry {
            tenants: BTreeMap::new(),
            base_dir: Some(base_dir.into()),
        }
    }

    /// Builds and registers a tenant service for `g` under `name`.
    /// The service is namespaced (`serve.<name>.*`), optionally cached
    /// and durable per `cfg`, and returned as the same `Arc` later
    /// [`ServiceRegistry::get`] calls hand out.
    pub fn try_register(
        &mut self,
        name: &str,
        g: &CsrGraph,
        cfg: &TenantConfig,
        exec: &Executor,
    ) -> Result<Arc<HcdService>, RegistryError> {
        if !valid_tenant_name(name) {
            return Err(RegistryError::InvalidName(name.to_owned()));
        }
        if self.tenants.contains_key(name) {
            return Err(RegistryError::DuplicateTenant(name.to_owned()));
        }
        let svc = match cfg.durability {
            Some(durability) => {
                let base = self.base_dir.as_ref().ok_or_else(|| {
                    RegistryError::Serve(ServeError::Wal(crate::wal::WalError::Io(
                        std::io::Error::new(
                            std::io::ErrorKind::NotFound,
                            "durable tenant on a registry without a base directory",
                        ),
                    )))
                })?;
                HcdService::try_new_durable(g, base.join(name), durability, exec)?
            }
            None => HcdService::try_new(g, exec).map_err(ServeError::Par)?,
        };
        let mut svc = svc.with_tenant(name);
        if let Some(cache_cfg) = cfg.cache {
            svc = svc.with_cache(cache_cfg);
        }
        let svc = Arc::new(svc);
        self.tenants.insert(name.to_owned(), Arc::clone(&svc));
        Ok(svc)
    }

    /// The tenant's service, if registered.
    pub fn get(&self, name: &str) -> Option<Arc<HcdService>> {
        self.tenants.get(name).cloned()
    }

    /// Registered tenant names, sorted.
    pub fn tenant_names(&self) -> Vec<&str> {
        self.tenants.keys().map(String::as_str).collect()
    }

    /// `(name, service)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Arc<HcdService>)> {
        self.tenants.iter().map(|(n, s)| (n.as_str(), s))
    }

    /// Number of registered tenants.
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// Whether no tenant is registered.
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    /// The per-tenant durability root, when configured.
    pub fn base_dir(&self) -> Option<&PathBuf> {
        self.base_dir.as_ref()
    }
}

impl Default for ServiceRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for ServiceRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ServiceRegistry({:?})", self.tenant_names())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::Query;
    use hcd_dynamic::EdgeUpdate;
    use hcd_graph::GraphBuilder;

    fn triangle() -> CsrGraph {
        GraphBuilder::new().edges([(0, 1), (1, 2), (2, 0)]).build()
    }

    fn path() -> CsrGraph {
        GraphBuilder::new().edges([(0, 1), (1, 2), (2, 3)]).build()
    }

    #[test]
    fn tenants_have_independent_generations_and_answers() {
        let exec = Executor::sequential();
        let mut reg = ServiceRegistry::new();
        let a = reg
            .try_register("alpha", &triangle(), &TenantConfig::default(), &exec)
            .unwrap();
        let b = reg
            .try_register("beta", &path(), &TenantConfig::default(), &exec)
            .unwrap();
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.tenant_names(), vec!["alpha", "beta"]);
        // Advance only alpha.
        a.try_apply_batch(&[EdgeUpdate::Insert(0, 3)], &exec)
            .unwrap();
        assert_eq!(a.generation(), 1);
        assert_eq!(b.generation(), 0);
        // The two graphs answer differently — no shared state.
        let qa = a.try_query_batch(&[Query::InKCore(0, 2)], &exec).unwrap();
        let qb = b.try_query_batch(&[Query::InKCore(0, 2)], &exec).unwrap();
        assert_ne!(qa.answers, qb.answers);
        assert_eq!(a.tenant(), Some("alpha"));
    }

    #[test]
    fn tenant_counters_are_namespaced() {
        let exec = Executor::sequential().with_metrics();
        let mut reg = ServiceRegistry::new();
        let a = reg
            .try_register("alpha", &triangle(), &TenantConfig::default(), &exec)
            .unwrap();
        a.try_in_k_core(0, 1, &exec).unwrap();
        a.try_apply_batch(&[EdgeUpdate::Insert(0, 3)], &exec)
            .unwrap();
        let m = exec.take_metrics();
        assert_eq!(m.get_counter("serve.alpha.queries").unwrap().value, 1);
        assert_eq!(m.get_counter("serve.alpha.swaps").unwrap().value, 1);
        assert!(m.get_counter("serve.queries").is_none());
        assert!(m.get_counter("serve.swaps").is_none());
        let regions: Vec<_> = m.regions.iter().map(|r| r.name).collect();
        assert!(regions.contains(&"serve.alpha.query.member"), "{regions:?}");
        assert!(regions.contains(&"serve.alpha.rebuild"), "{regions:?}");
    }

    #[test]
    fn duplicate_and_invalid_names_are_refused() {
        let exec = Executor::sequential();
        let mut reg = ServiceRegistry::new();
        reg.try_register("ok-name_1", &triangle(), &TenantConfig::default(), &exec)
            .unwrap();
        assert!(matches!(
            reg.try_register("ok-name_1", &triangle(), &TenantConfig::default(), &exec),
            Err(RegistryError::DuplicateTenant(_))
        ));
        for bad in ["", "Has Caps", "dots.break.metrics", "a/b"] {
            assert!(
                matches!(
                    reg.try_register(bad, &triangle(), &TenantConfig::default(), &exec),
                    Err(RegistryError::InvalidName(_))
                ),
                "{bad:?} should be invalid"
            );
        }
    }

    #[test]
    fn durable_tenants_get_disjoint_directories() {
        let exec = Executor::sequential();
        let base = crate::testutil::TempDir::new("registry-test");
        let mut reg = ServiceRegistry::with_base_dir(&*base);
        let cfg = TenantConfig {
            cache: None,
            durability: Some(DurabilityConfig::default()),
        };
        let a = reg.try_register("alpha", &triangle(), &cfg, &exec).unwrap();
        let b = reg.try_register("beta", &path(), &cfg, &exec).unwrap();
        assert_eq!(a.durability_dir().unwrap(), base.join("alpha"));
        assert_eq!(b.durability_dir().unwrap(), base.join("beta"));
        a.try_apply_batch(&[EdgeUpdate::Insert(0, 3)], &exec)
            .unwrap();
        assert!(base.join("alpha").join(crate::WAL_FILE_NAME).exists());
        assert!(base.join("beta").join(crate::WAL_FILE_NAME).exists());
    }

    #[test]
    fn durable_registration_without_base_dir_is_refused() {
        let exec = Executor::sequential();
        let mut reg = ServiceRegistry::new();
        let cfg = TenantConfig {
            cache: None,
            durability: Some(DurabilityConfig::default()),
        };
        assert!(matches!(
            reg.try_register("alpha", &triangle(), &cfg, &exec),
            Err(RegistryError::Serve(_))
        ));
    }
}
