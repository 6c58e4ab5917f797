//! The shared template store: one lock over one map, byte-budgeted and
//! multi-tenant template ownership (§ DESIGN 3.14).
//!
//! The paper keeps saved templates inside each client stub and notes that
//! a server sending similar responses can reuse them the same way (§3,
//! §6). [`TemplateStore`] is where both sides keep them, with resident
//! bytes bounded no matter how many tenants show up:
//!
//! * **One lock.** One mutex guards the key → variants map, the
//!   per-tenant byte ledger and the resident and reserved totals. A store
//!   is touched by one client thread or by the server's few event-loop
//!   threads, so admission inserts and evicts under that one lock, and
//!   the budget and quotas hold at every instant.
//! * **Budgeted.** A hard global byte budget caps resident template bytes
//!   (plus reserved overlay-window bytes). Admission past the budget
//!   evicts until the store fits again.
//! * **Cost-aware.** Victims are chosen by
//!   [`MessageTemplate::rebuild_estimate`] — the §5 cost model's price of
//!   re-serializing from scratch. Cheap-to-rebuild templates go first;
//!   an expensive template survives a cheap one under pressure, because
//!   evicting it would cost the most to undo.
//! * **Tenant-isolated.** Per-tenant byte quotas stop one hot tenant from
//!   evicting everyone else: a tenant over quota only ever evicts its own
//!   templates.
//! * **Variants.** "It also may be useful to store multiple different
//!   message templates for the same remote service" (§6): a key keeps up
//!   to `cap` templates, most recently used first, and a checkout serves
//!   the one whose array geometry is cheapest to resize to the outgoing
//!   arguments, so workloads that alternate between a few message shapes
//!   never pay for resizing.
//!
//! Ownership moves through the store by value: [`TemplateStore::checkout`]
//! removes the best-matching template (its bytes leave the budget
//! immediately — a checked-out template a cost gate later discards can
//! never strand budget), [`TemplateStore::send`] (the one tiered send,
//! [`crate::send`]) diffs and sends it, then [`TemplateStore::admit`]
//! returns it. The key's emptied slot stays in the map, so the admit that
//! follows a hit allocates nothing. One checkout is one lookup:
//! `TemplateHits + TemplateMisses` reconciles exactly with the number of
//! checkouts. `send` is the only product caller of the pair;
//! [`TemplateStore::peek`] is the read-only look for everything else.

use crate::config::WireFormat;
use crate::schema::OpDesc;
use crate::template::MessageTemplate;
use crate::value::Value;
use bsoap_obs::{Counter, Level, Metrics, Recorder};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Template key: endpoint plus structural signature plus wire format.
///
/// The format is part of the identity because an XML template and a
/// binary template of the same call share nothing byte-wise — a client
/// that negotiates the binary lane for one endpoint must never patch an
/// XML template saved for another lane.
///
/// The strings are shared (`Arc<str>`), so a key built once — a server
/// operation's response key, say — re-enters the store on every
/// [`TemplateStore::admit`] by reference count, not by copy.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct TemplateKey {
    /// Endpoint identity (URL or logical service name).
    pub endpoint: Arc<str>,
    /// Structural signature from [`OpDesc::signature`].
    pub signature: Arc<str>,
    /// Wire format the saved bytes are encoded in.
    pub format: WireFormat,
}

impl TemplateKey {
    /// Build the key for an operation on an endpoint (XML lane).
    pub fn new(endpoint: &str, op: &OpDesc) -> Self {
        Self::for_format(endpoint, op, WireFormat::SoapXml)
    }

    /// Build the key for an operation on an endpoint in a specific wire
    /// format.
    pub fn for_format(endpoint: &str, op: &OpDesc, format: WireFormat) -> Self {
        TemplateKey {
            endpoint: endpoint.into(),
            signature: op.signature().into(),
            format,
        }
    }
}

/// Store key: tenant plus the template key. Tenant `0` is the
/// single-tenant default, so a lone client pays nothing for the extra
/// dimension.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct StoreKey {
    /// Tenant identity (billing/isolation domain).
    pub tenant: u64,
    /// Endpoint + structural signature + wire format.
    pub key: TemplateKey,
}

impl StoreKey {
    /// Key for `tenant`'s template for `(endpoint, op)`.
    pub fn new(tenant: u64, key: TemplateKey) -> Self {
        StoreKey { tenant, key }
    }
}

/// What a [`TemplateStore::checkout`] found.
// Hit is by far the common case on a warm store, and the value is
// consumed immediately at the call site — boxing it would put a heap
// allocation on the hot path to shrink a transient enum.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Checkout {
    /// A usable template, removed from the store (its bytes already left
    /// the budget). Diff, send, then [`TemplateStore::admit`] it back.
    Hit(MessageTemplate),
    /// No template stored under this key at all.
    MissEmpty,
    /// Variants exist, but the best match needs a resize and the set has
    /// room for another shape — build a new variant instead (§6
    /// multi-template policy).
    MissVariant,
}

impl Checkout {
    /// The template, if this was a hit.
    pub fn hit(self) -> Option<MessageTemplate> {
        match self {
            Checkout::Hit(t) => Some(t),
            _ => None,
        }
    }
}

/// Everything the store's lock guards.
#[derive(Default)]
struct Ledger {
    /// Key → up to `cap` variants, most recently used first. A checkout
    /// leaves the key's emptied slot for the admit that follows it; purge
    /// and eviction remove empty slots, and a miss never creates one.
    map: HashMap<StoreKey, Vec<MessageTemplate>>,
    /// Tenant → resident bytes. Entries are removed when they hit zero
    /// so the map stays bounded by *live* tenants.
    tenant_bytes: HashMap<u64, u64>,
    /// Resident bytes: templates + overlay reservations.
    resident: u64,
    /// Reserved (non-template, non-evictable) bytes within `resident`.
    reserved: u64,
}

impl Ledger {
    fn tenant(&self, tenant: u64) -> u64 {
        self.tenant_bytes.get(&tenant).copied().unwrap_or(0)
    }

    fn charge(&mut self, tenant: u64, bytes: u64) {
        self.resident += bytes;
        *self.tenant_bytes.entry(tenant).or_insert(0) += bytes;
    }

    fn credit(&mut self, tenant: u64, bytes: u64) {
        self.resident -= bytes;
        if let Some(v) = self.tenant_bytes.get_mut(&tenant) {
            *v = v.saturating_sub(bytes);
            if *v == 0 {
                self.tenant_bytes.remove(&tenant);
            }
        }
    }

    /// Evict cheapest-to-rebuild templates into `victims` until the
    /// watched byte count (one tenant's, or the global total) is back
    /// under `limit`.
    fn evict_until(&mut self, tenant: Option<u64>, limit: u64, victims: &mut Vec<MessageTemplate>) {
        loop {
            let current = match tenant {
                Some(t) => self.tenant(t),
                None => self.resident,
            };
            if current <= limit {
                return;
            }
            let mut cheapest: Option<(u64, &StoreKey, usize)> = None;
            for (k, set) in &self.map {
                if tenant.is_some_and(|t| k.tenant != t) {
                    continue;
                }
                for (i, tpl) in set.iter().enumerate() {
                    let score = tpl.rebuild_estimate();
                    if cheapest.is_none_or(|(s, _, _)| score < s) {
                        cheapest = Some((score, k, i));
                    }
                }
            }
            // Nothing evictable: reservations alone exceed the limit.
            let Some((_, key, idx)) = cheapest else {
                return;
            };
            let key = key.clone();
            let set = self.map.get_mut(&key).expect("the victim's key is mapped");
            let tpl = set.remove(idx);
            if set.is_empty() {
                self.map.remove(&key);
            }
            self.credit(key.tenant, tpl.message_len() as u64);
            victims.push(tpl);
        }
    }
}

/// Byte-budgeted, multi-tenant template store behind one lock.
///
/// Construction pins the budget and quota; `0` means unlimited for both.
/// All methods take `&self` — wrap in an [`Arc`] to share across clients,
/// server loops, or threads.
pub struct TemplateStore {
    ledger: Mutex<Ledger>,
    /// Hard global byte budget (`0` = unlimited).
    budget: u64,
    /// Per-tenant byte quota (`0` = unlimited).
    tenant_quota: u64,
    metrics: OnceLock<Arc<Metrics>>,
}

impl std::fmt::Debug for TemplateStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TemplateStore")
            .field("budget", &self.budget)
            .field("tenant_quota", &self.tenant_quota)
            .finish_non_exhaustive()
    }
}

impl TemplateStore {
    /// Store with a global byte budget and per-tenant quota (`0` =
    /// unlimited for either).
    pub fn new(budget_bytes: usize, tenant_quota_bytes: usize) -> Self {
        TemplateStore {
            ledger: Mutex::default(),
            budget: budget_bytes as u64,
            tenant_quota: tenant_quota_bytes as u64,
            metrics: OnceLock::new(),
        }
    }

    /// Unbudgeted store (both limits off).
    pub fn unbounded() -> Self {
        Self::new(0, 0)
    }

    /// Convenience: a shareable unbudgeted store.
    pub fn shared(budget_bytes: usize, tenant_quota_bytes: usize) -> Arc<Self> {
        Arc::new(Self::new(budget_bytes, tenant_quota_bytes))
    }

    /// Attach an observability registry. First caller wins (the store is
    /// shared; competing registries would split its counters).
    pub fn set_metrics(&self, metrics: Arc<Metrics>) {
        let _ = self.metrics.set(metrics);
    }

    /// The attached registry, if any.
    pub fn metrics(&self) -> Option<&Arc<Metrics>> {
        self.metrics.get()
    }

    /// The configured global budget in bytes (`0` = unlimited).
    pub fn budget_bytes(&self) -> u64 {
        self.budget
    }

    /// The configured per-tenant quota in bytes (`0` = unlimited).
    pub fn tenant_quota_bytes(&self) -> u64 {
        self.tenant_quota
    }

    fn lock(&self) -> MutexGuard<'_, Ledger> {
        self.ledger.lock().unwrap()
    }

    /// Resident bytes right now: stored templates plus reservations.
    pub fn resident_bytes(&self) -> u64 {
        self.lock().resident
    }

    /// Bytes currently resident for one tenant.
    pub fn tenant_resident_bytes(&self, tenant: u64) -> u64 {
        self.lock().tenant(tenant)
    }

    /// Number of keys with at least one stored template.
    pub fn len(&self) -> usize {
        self.lock()
            .map
            .values()
            .filter(|set| !set.is_empty())
            .count()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total templates across all keys.
    pub fn template_count(&self) -> usize {
        self.lock().map.values().map(Vec::len).sum()
    }

    /// Whether any template is stored under `key`.
    pub fn contains(&self, key: &StoreKey) -> bool {
        self.lock().map.get(key).is_some_and(|set| !set.is_empty())
    }

    /// Re-sum template bytes + reservations — the audit the tests
    /// reconcile [`TemplateStore::resident_bytes`] against.
    pub fn recount_bytes(&self) -> u64 {
        let g = self.lock();
        let stored: u64 = g
            .map
            .values()
            .flatten()
            .map(|t| t.message_len() as u64)
            .sum();
        stored + g.reserved
    }

    /// Enforce the tenant quota and the global budget after `tenant`'s
    /// bytes grew, then publish the resident level. Runs under the lock.
    fn settle(&self, g: &mut Ledger, tenant: u64, victims: &mut Vec<MessageTemplate>) {
        if self.tenant_quota > 0 {
            g.evict_until(Some(tenant), self.tenant_quota, victims);
        }
        if self.budget > 0 {
            g.evict_until(None, self.budget, victims);
        }
        self.publish(g);
    }

    /// Mirror the resident bytes into the level gauge. Runs under the
    /// lock, so the last value published is the ledger's.
    fn publish(&self, g: &Ledger) {
        if let Some(m) = self.metrics.get() {
            m.level_set(Level::TemplateBytesResident, g.resident);
        }
    }

    fn tick(&self, c: Counter, n: u64) {
        if n > 0 {
            if let Some(m) = self.metrics.get() {
                m.add(c, n);
            }
        }
    }

    /// Look up the best template for `args` under `key` and, when it can
    /// serve the call without a resize (or the set is already at `cap`
    /// variants), remove and return it. One checkout is one lookup:
    /// exactly one of `TemplateHits` / `TemplateMisses` ticks.
    ///
    /// The removed template's bytes leave the budget immediately, so a
    /// checked-out template that is later discarded (cost fallback,
    /// demotion) can never strand budget — only [`TemplateStore::admit`]
    /// re-charges it.
    pub fn checkout(&self, key: &StoreKey, args: &[Value], cap: usize) -> Checkout {
        let mut g = self.lock();
        let found = g.map.get_mut(key).and_then(|set| {
            let (idx, dist) = best_match(set, args)?;
            Some((dist == 0 || set.len() >= cap.max(1)).then(|| set.remove(idx)))
        });
        let out = match found {
            None => Checkout::MissEmpty,
            Some(None) => Checkout::MissVariant,
            Some(Some(tpl)) => {
                g.credit(key.tenant, tpl.message_len() as u64);
                self.publish(&g);
                Checkout::Hit(tpl)
            }
        };
        drop(g);
        let counter = match out {
            Checkout::Hit(_) => Counter::TemplateHits,
            _ => Counter::TemplateMisses,
        };
        self.tick(counter, 1);
        out
    }

    /// Look at the most recently used template under `key` without taking
    /// it out: `look` runs under the store lock on a shared reference.
    /// Not a send lookup — ticks neither hits nor misses, moves no budget.
    pub fn peek<R>(&self, key: &StoreKey, look: impl FnOnce(&MessageTemplate) -> R) -> Option<R> {
        self.lock().map.get(key)?.first().map(look)
    }

    /// Store `template` as the MRU variant under `key`, keeping at most
    /// `cap` variants there, then enforce the tenant quota and global
    /// budget (cheapest-to-rebuild victims first). Returns the number of
    /// templates evicted to make room (0 when everything fit).
    pub fn admit(&self, key: StoreKey, template: MessageTemplate, cap: usize) -> u64 {
        let tenant = key.tenant;
        let bytes = template.message_len() as u64;
        let mut victims = Vec::new();
        let mut g = self.lock();
        insert_variant(g.map.entry(key).or_default(), template, cap, &mut victims);
        let dropped = victims.iter().map(|t| t.message_len() as u64).sum();
        g.charge(tenant, bytes);
        g.credit(tenant, dropped);
        self.settle(&mut g, tenant, &mut victims);
        drop(g);
        let evicted = victims.len() as u64;
        self.tick(Counter::TemplateEvictions, evicted);
        evicted
    }

    /// A cost-gate fallback discarded a checked-out template. Its bytes
    /// already left the budget at checkout; this only records the loss.
    pub fn note_discard(&self, _template: &MessageTemplate) {
        self.tick(Counter::TemplateEvictions, 1);
    }

    /// Drop every template under `key` (degraded-mode demotion, manual
    /// eviction). Returns how many templates were removed.
    pub fn purge(&self, key: &StoreKey) -> usize {
        let mut g = self.lock();
        let Some(set) = g.map.remove(key) else {
            return 0;
        };
        let bytes = set.iter().map(|t| t.message_len() as u64).sum();
        g.credit(key.tenant, bytes);
        self.publish(&g);
        drop(g);
        self.tick(Counter::TemplateEvictions, set.len() as u64);
        set.len()
    }

    /// Clone a same-structure, same-format template saved for a
    /// *different* endpoint of the *same tenant* — the §6 cross-endpoint
    /// sharing candidate, tenant-scoped so sharing never leaks bytes
    /// across isolation domains, format-scoped so one lane's bytes never
    /// reach the other lane.
    pub fn find_shareable(&self, key: &StoreKey) -> Option<MessageTemplate> {
        self.lock().map.iter().find_map(|(k, set)| {
            (k.tenant == key.tenant
                && k.key.signature == key.key.signature
                && k.key.format == key.key.format
                && k.key.endpoint != key.key.endpoint)
                .then(|| set.first().cloned())
                .flatten()
        })
    }

    /// Reserve non-evictable bytes against the budget (overlay window
    /// fragments live outside the template map but are template memory
    /// all the same). Reservation evicts templates to fit but is itself
    /// never evicted; pair with [`TemplateStore::release`].
    pub fn reserve(&self, tenant: u64, bytes: u64) {
        if bytes == 0 {
            return;
        }
        let mut victims = Vec::new();
        let mut g = self.lock();
        g.reserved += bytes;
        g.charge(tenant, bytes);
        self.settle(&mut g, tenant, &mut victims);
        drop(g);
        self.tick(Counter::TemplateEvictions, victims.len() as u64);
    }

    /// Return bytes previously taken with [`TemplateStore::reserve`].
    pub fn release(&self, tenant: u64, bytes: u64) {
        if bytes == 0 {
            return;
        }
        let mut g = self.lock();
        g.reserved -= bytes;
        g.credit(tenant, bytes);
        self.publish(&g);
    }
}

/// Insert `template` as `set`'s MRU variant and move what `cap` pushes
/// out (LRU last) into `victims`.
fn insert_variant(
    set: &mut Vec<MessageTemplate>,
    template: MessageTemplate,
    cap: usize,
    victims: &mut Vec<MessageTemplate>,
) {
    set.insert(0, template);
    if set.len() > cap.max(1) {
        victims.extend(set.drain(cap.max(1)..));
    }
}

/// Index and distance of the best-matching template for `args`: the
/// candidate with the cheapest estimated resize plan (geometry distance
/// breaks ties). The returned distance is the geometric one — callers
/// use `dist == 0` as the "no resize needed" signal.
fn best_match(set: &[MessageTemplate], args: &[Value]) -> Option<(usize, usize)> {
    set.iter()
        .enumerate()
        .map(|(i, t)| (i, resize_cost(t, args), distance(t, args)))
        .min_by_key(|&(_, cost, dist)| (cost, dist))
        .map(|(i, _, dist)| (i, dist))
}

/// Sum of array-length distances between a template and the outgoing
/// arguments — 0 means every array already has the right length (no
/// resize needed).
fn distance(tpl: &MessageTemplate, args: &[Value]) -> usize {
    let mut dist = 0usize;
    let mut array_idx = 0usize;
    for arg in args {
        if let Some(n) = arg.array_len() {
            if array_idx < tpl.array_count() {
                dist += tpl.array_len(array_idx).abs_diff(n);
            }
            array_idx += 1;
        }
    }
    dist
}

/// Estimated cost of resizing a template to serve `args`, in the
/// planner's currency: growing prices the new elements' bytes plus one
/// re-serialization per added element leaf; shrinking only pays
/// bookkeeping per removed element. So a slightly-smaller template (cheap
/// shrink) beats a much-smaller one (expensive grow) even when the
/// latter's length distance is lower.
fn resize_cost(tpl: &MessageTemplate, args: &[Value]) -> u64 {
    let mut cost = 0u64;
    let mut array_idx = 0usize;
    for arg in args {
        if let Some(n) = arg.array_len() {
            if array_idx < tpl.array_count() {
                let old = tpl.array_len(array_idx);
                if n > old {
                    let elem_bytes = tpl.array_elem_bytes(array_idx) as u64;
                    cost += (n - old) as u64 * (elem_bytes + 1);
                } else {
                    cost += (old - n) as u64;
                }
            }
            array_idx += 1;
        }
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::schema::TypeDesc;
    use bsoap_convert::ScalarKind;
    use bsoap_obs::EngineStats;

    fn arr_op() -> OpDesc {
        OpDesc::single(
            "f",
            "urn:t",
            "a",
            TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double)),
        )
    }

    fn arr_tpl(n: usize) -> MessageTemplate {
        MessageTemplate::build(
            EngineConfig::paper_default(),
            &arr_op(),
            &[Value::DoubleArray(vec![0.5; n])],
        )
        .unwrap()
    }

    fn skey(tenant: u64, endpoint: &str) -> StoreKey {
        StoreKey::new(tenant, TemplateKey::new(endpoint, &arr_op()))
    }

    #[test]
    fn keys_distinguish_endpoint_and_structure() {
        let op = |name| OpDesc::single(name, "urn:t", "v", TypeDesc::Scalar(ScalarKind::Int));
        let k1 = TemplateKey::new("http://a/svc", &op("f"));
        let k2 = TemplateKey::new("http://b/svc", &op("f"));
        let k3 = TemplateKey::new("http://a/svc", &op("g"));
        assert_ne!(k1, k2);
        assert_ne!(k1, k3);
        assert_eq!(k1, TemplateKey::new("http://a/svc", &op("f")));
        // The wire format is part of the identity: a binary template can
        // never be served where XML bytes are expected.
        let k4 = TemplateKey::for_format("http://a/svc", &op("f"), WireFormat::CompactBinary);
        assert_ne!(k1, k4);
        assert_eq!(k1.format, WireFormat::SoapXml);
    }

    #[test]
    fn set_keeps_mru_order_and_cap() {
        let (mut set, mut victims) = (Vec::new(), Vec::new());
        insert_variant(&mut set, arr_tpl(1), 2, &mut victims);
        insert_variant(&mut set, arr_tpl(5), 2, &mut victims);
        assert!(victims.is_empty());
        assert_eq!(set.len(), 2);
        insert_variant(&mut set, arr_tpl(9), 2, &mut victims); // evicts the n=1 template
        assert_eq!(victims.len(), 1);
        assert_eq!(victims[0].array_len(0), 1);
        assert_eq!(set.len(), 2);
        let lens: Vec<usize> = set.iter().map(|t| t.array_len(0)).collect();
        assert_eq!(lens, vec![9, 5]);
    }

    #[test]
    fn best_match_prefers_matching_lengths() {
        let mut set = Vec::new();
        for n in [10, 100, 1000] {
            insert_variant(&mut set, arr_tpl(n), 3, &mut Vec::new());
        }
        let (idx, dist) = best_match(&set, &[Value::DoubleArray(vec![0.5; 100])]).unwrap();
        assert_eq!(dist, 0);
        assert_eq!(set[idx].array_len(0), 100);
        let (idx, dist) = best_match(&set, &[Value::DoubleArray(vec![0.5; 90])]).unwrap();
        assert_eq!(dist, 10);
        assert_eq!(set[idx].array_len(0), 100);
    }

    #[test]
    fn a_hit_keeps_its_slot_and_a_miss_makes_none() {
        let store = TemplateStore::unbounded();
        let args = [Value::DoubleArray(vec![0.5; 4])];
        assert!(store.checkout(&skey(0, "ep"), &args, 1).hit().is_none());
        assert_eq!(
            store.ledger.lock().unwrap().map.len(),
            0,
            "a miss adds no slot"
        );
        store.admit(skey(0, "ep"), arr_tpl(4), 1);
        let tpl = store.checkout(&skey(0, "ep"), &args, 1).hit().unwrap();
        assert_eq!(
            store.ledger.lock().unwrap().map.len(),
            1,
            "the emptied slot stays"
        );
        assert!(store.is_empty());
        assert!(!store.contains(&skey(0, "ep")));
        assert_eq!(store.template_count(), 0);
        assert!(store.find_shareable(&skey(0, "other")).is_none());
        assert!(store.checkout(&skey(0, "ep"), &args, 1).hit().is_none());
        store.admit(skey(0, "ep"), tpl, 1);
        assert_eq!(store.len(), 1);
        store.checkout(&skey(0, "ep"), &args, 1).hit().unwrap();
        assert_eq!(store.purge(&skey(0, "ep")), 0);
        assert_eq!(
            store.ledger.lock().unwrap().map.len(),
            0,
            "purge drops the slot"
        );
    }

    #[test]
    fn checkout_admit_round_trip_accounts_bytes() {
        let store = TemplateStore::unbounded();
        let tpl = arr_tpl(8);
        let bytes = tpl.message_len() as u64;
        store.admit(skey(0, "ep"), tpl, 1);
        assert_eq!(store.resident_bytes(), bytes);
        assert_eq!(store.tenant_resident_bytes(0), bytes);
        assert_eq!(store.recount_bytes(), bytes);

        let out = store
            .checkout(&skey(0, "ep"), &[Value::DoubleArray(vec![0.5; 8])], 1)
            .hit()
            .expect("exact-geometry hit");
        assert_eq!(store.resident_bytes(), 0, "checkout frees bytes at once");
        assert_eq!(store.tenant_resident_bytes(0), 0);
        store.admit(skey(0, "ep"), out, 1);
        assert_eq!(store.resident_bytes(), bytes);
    }

    #[test]
    fn hits_plus_misses_reconcile_with_checkouts() {
        let store = TemplateStore::unbounded();
        let m = Metrics::shared();
        store.set_metrics(Arc::clone(&m));
        let args = [Value::DoubleArray(vec![0.5; 4])];
        let mut checkouts = 0u64;

        // Miss on the empty store, miss-variant with room, hit when full.
        assert!(store.checkout(&skey(0, "ep"), &args, 2).hit().is_none());
        checkouts += 1;
        store.admit(skey(0, "ep"), arr_tpl(9), 2);
        assert!(
            store.checkout(&skey(0, "ep"), &args, 2).hit().is_none(),
            "resize needed and the set has room: build a variant instead"
        );
        checkouts += 1;
        store.admit(skey(0, "ep"), arr_tpl(4), 2);
        let hit = store.checkout(&skey(0, "ep"), &args, 2).hit();
        checkouts += 1;
        store.admit(skey(0, "ep"), hit.unwrap(), 2);

        let s = EngineStats::snapshot(&m);
        assert_eq!(s.get(Counter::TemplateHits), 1);
        assert_eq!(s.get(Counter::TemplateMisses), 2);
        assert_eq!(
            s.get(Counter::TemplateHits) + s.get(Counter::TemplateMisses),
            checkouts
        );
    }

    #[test]
    fn budget_evicts_cheapest_rebuild_first() {
        // Budget sized so the expensive (large) template plus one small
        // one fit, but not two smalls more: the small, cheap-to-rebuild
        // templates must be the victims while the expensive one survives.
        let expensive = arr_tpl(256);
        let small = arr_tpl(4);
        assert!(expensive.rebuild_estimate() > small.rebuild_estimate());
        let budget = expensive.message_len() + small.message_len() + 8;
        let store = TemplateStore::new(budget, 0);
        let m = Metrics::shared();
        store.set_metrics(Arc::clone(&m));

        store.admit(skey(0, "big"), expensive, 1);
        store.admit(skey(0, "s1"), arr_tpl(4), 1);
        // Over budget now: the cheapest of the two smalls goes, never the
        // expensive template.
        store.admit(skey(0, "s2"), arr_tpl(4), 1);
        assert!(store.resident_bytes() <= budget as u64);
        assert!(
            store.contains(&skey(0, "big")),
            "higher rebuild_estimate survives lower under pressure"
        );
        assert_eq!(
            store.template_count(),
            2,
            "exactly one small template was evicted"
        );
        let s = EngineStats::snapshot(&m);
        assert_eq!(s.get(Counter::TemplateEvictions), 1);
        assert_eq!(store.recount_bytes(), store.resident_bytes());
    }

    #[test]
    fn tenant_quota_only_evicts_the_offender() {
        let probe = arr_tpl(4).message_len();
        // Quota fits two small templates per tenant, not three.
        let quota = 2 * probe + 4;
        let store = TemplateStore::new(0, quota);
        store.admit(skey(1, "a"), arr_tpl(4), 1);
        store.admit(skey(2, "a"), arr_tpl(4), 1);
        store.admit(skey(1, "b"), arr_tpl(4), 1);
        store.admit(skey(1, "c"), arr_tpl(4), 1); // tenant 1 over quota
        assert!(store.tenant_resident_bytes(1) <= quota as u64);
        assert_eq!(
            store.tenant_resident_bytes(2),
            probe as u64,
            "tenant 2 untouched by tenant 1's overflow"
        );
        assert_eq!(store.recount_bytes(), store.resident_bytes());
    }

    #[test]
    fn per_key_cap_returns_bytes_of_lru_variant() {
        let store = TemplateStore::unbounded();
        store.admit(skey(0, "ep"), arr_tpl(2), 2);
        store.admit(skey(0, "ep"), arr_tpl(3), 2);
        let two = store.resident_bytes();
        store.admit(skey(0, "ep"), arr_tpl(5), 2); // cap 2: n=2 falls out
        assert!(store.resident_bytes() > 0);
        assert!(
            store.resident_bytes() != two + arr_tpl(5).message_len() as u64,
            "the evicted variant's bytes were returned to the budget"
        );
        assert_eq!(store.template_count(), 2);
        assert_eq!(store.recount_bytes(), store.resident_bytes());
    }

    #[test]
    fn purge_and_discard_accounting() {
        let store = TemplateStore::unbounded();
        let m = Metrics::shared();
        store.set_metrics(Arc::clone(&m));
        store.admit(skey(0, "ep"), arr_tpl(2), 2);
        store.admit(skey(0, "ep"), arr_tpl(3), 2);
        assert_eq!(store.purge(&skey(0, "ep")), 2);
        assert_eq!(store.resident_bytes(), 0);
        assert!(!store.contains(&skey(0, "ep")));

        // Cost-fallback discard: bytes already freed at checkout, the
        // discard only records the eviction.
        store.admit(skey(0, "ep"), arr_tpl(4), 1);
        let t = store
            .checkout(&skey(0, "ep"), &[Value::DoubleArray(vec![0.5; 4])], 1)
            .hit()
            .unwrap();
        assert_eq!(store.resident_bytes(), 0);
        store.note_discard(&t);
        let s = EngineStats::snapshot(&m);
        assert_eq!(s.get(Counter::TemplateEvictions), 3);
    }

    #[test]
    fn reservations_charge_the_budget_but_never_evict_themselves() {
        let probe = arr_tpl(4).message_len();
        let budget = 3 * probe;
        let store = TemplateStore::new(budget, 0);
        store.admit(skey(0, "a"), arr_tpl(4), 1);
        store.reserve(0, (2 * probe + probe / 2) as u64);
        // The reservation pushed the store over budget; the template is
        // the only evictable thing.
        assert_eq!(store.template_count(), 0);
        let floor = store.resident_bytes();
        store.reserve(0, budget as u64); // way over: nothing left to evict
        assert_eq!(store.resident_bytes(), floor + budget as u64);
        store.release(0, budget as u64);
        assert_eq!(store.resident_bytes(), floor);
        assert_eq!(store.recount_bytes(), store.resident_bytes());
    }

    #[test]
    fn find_shareable_is_tenant_scoped() {
        let store = TemplateStore::unbounded();
        store.admit(skey(7, "a"), arr_tpl(5), 1);
        assert!(store.find_shareable(&skey(7, "b")).is_some());
        assert!(
            store.find_shareable(&skey(8, "b")).is_none(),
            "no cross-tenant sharing"
        );
        assert!(
            store.find_shareable(&skey(7, "a")).is_none(),
            "same endpoint is a direct hit, not a share"
        );
        let other_lane = StoreKey::new(
            7,
            TemplateKey::for_format("b", &arr_op(), crate::config::WireFormat::CompactBinary),
        );
        assert!(
            store.find_shareable(&other_lane).is_none(),
            "the saved bytes are a different lane"
        );
    }

    #[test]
    fn level_gauge_tracks_resident_bytes() {
        let store = TemplateStore::unbounded();
        let m = Metrics::shared();
        store.set_metrics(Arc::clone(&m));
        store.admit(skey(0, "ep"), arr_tpl(8), 1);
        assert_eq!(
            m.level_get(Level::TemplateBytesResident),
            store.resident_bytes()
        );
        store.purge(&skey(0, "ep"));
        assert_eq!(m.level_get(Level::TemplateBytesResident), 0);
    }
}
