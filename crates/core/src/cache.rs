//! Template identity and per-key variant sets: the [`TemplateKey`] a saved
//! message is filed under and the §6 multi-template [`TemplateSet`] the
//! [`crate::store::TemplateStore`] keeps per key.
//!
//! "It also may be useful to store multiple different message templates
//! for the same remote service, rather than one per call type" (§6) —
//! [`TemplateSet`] keeps up to *k* templates per key and serves the one
//! whose array geometry is closest to the outgoing arguments, so
//! workloads that alternate between a few message shapes never pay for
//! resizing.

use crate::config::WireFormat;
use crate::schema::OpDesc;
use crate::template::MessageTemplate;
use crate::value::Value;
use std::sync::Arc;

/// Cache key: endpoint plus structural signature plus wire format.
///
/// The format is part of the identity because an XML template and a
/// binary template of the same call share nothing byte-wise — a client
/// that negotiates the binary lane for one endpoint must never patch an
/// XML template saved for another lane.
///
/// The strings are shared (`Arc<str>`), so a key built once — a server
/// operation's response key, say — re-enters the store on every
/// [`crate::store::TemplateStore::admit`] by reference count, not by copy.
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

/// Up to `cap` templates for one key, most recently used first.
#[derive(Debug, Default)]
pub struct TemplateSet {
    templates: Vec<MessageTemplate>,
}

impl TemplateSet {
    /// Number of stored templates.
    pub fn len(&self) -> usize {
        self.templates.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.templates.is_empty()
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
    /// bookkeeping per removed element. This is the plan-shaped replacement
    /// for the raw geometry heuristic — a slightly-smaller template (cheap
    /// shrink) now beats a much-smaller one (expensive grow) even when the
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

    /// Index and distance of the best-matching template for `args`: the
    /// candidate with the cheapest estimated resize plan (geometry distance
    /// breaks ties). The returned distance is the geometric one — callers
    /// use `dist == 0` as the "no resize needed" signal.
    pub fn best_match(&self, args: &[Value]) -> Option<(usize, usize)> {
        self.templates
            .iter()
            .enumerate()
            .map(|(i, t)| (i, Self::resize_cost(t, args), Self::distance(t, args)))
            .min_by_key(|&(_, cost, dist)| (cost, dist))
            .map(|(i, _, dist)| (i, dist))
    }

    /// Remove and return template `idx` (a store checkout moves the
    /// template out by value).
    pub fn remove(&mut self, idx: usize) -> MessageTemplate {
        self.templates.remove(idx)
    }

    /// Insert a template at the MRU position and hand back what `cap`
    /// pushed out (LRU first to go) — the store needs every evicted
    /// template to return its bytes to the budget.
    pub fn insert_evicting(
        &mut self,
        template: MessageTemplate,
        cap: usize,
    ) -> Vec<MessageTemplate> {
        self.templates.insert(0, template);
        let cap = cap.max(1);
        if self.templates.len() > cap {
            self.templates.split_off(cap)
        } else {
            Vec::new()
        }
    }

    /// The stored templates, MRU first.
    pub fn templates(&self) -> &[MessageTemplate] {
        &self.templates
    }

    /// Total serialized bytes held.
    pub fn total_bytes(&self) -> usize {
        self.templates.iter().map(|t| t.message_len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TypeDesc;
    use crate::{EngineConfig, Value};
    use bsoap_convert::ScalarKind;

    fn op(name: &str) -> OpDesc {
        OpDesc::single(name, "urn:t", "v", TypeDesc::Scalar(ScalarKind::Int))
    }

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

    #[test]
    fn keys_distinguish_endpoint_and_structure() {
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
        let mut set = TemplateSet::default();
        assert!(set.insert_evicting(arr_tpl(1), 2).is_empty());
        assert!(set.insert_evicting(arr_tpl(5), 2).is_empty());
        assert_eq!(set.len(), 2);
        let out = set.insert_evicting(arr_tpl(9), 2); // evicts the n=1 template
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].array_len(0), 1);
        assert_eq!(set.len(), 2);
        let lens: Vec<usize> = set.templates.iter().map(|t| t.array_len(0)).collect();
        assert_eq!(lens, vec![9, 5]);
    }

    #[test]
    fn best_match_prefers_matching_lengths() {
        let mut set = TemplateSet::default();
        for n in [10, 100, 1000] {
            set.insert_evicting(arr_tpl(n), 3);
        }
        let (idx, dist) = set
            .best_match(&[Value::DoubleArray(vec![0.5; 100])])
            .unwrap();
        assert_eq!(dist, 0);
        assert_eq!(set.templates[idx].array_len(0), 100);
        let (idx, dist) = set
            .best_match(&[Value::DoubleArray(vec![0.5; 90])])
            .unwrap();
        assert_eq!(dist, 10);
        assert_eq!(set.templates[idx].array_len(0), 100);
    }
}
