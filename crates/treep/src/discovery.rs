//! Resource discovery on top of the DHT extension.
//!
//! TreeP was designed as the P2P substrate of the DGET grid middleware: its
//! primary service is **resource discovery and load balancing**. This module
//! provides the thin naming layer the middleware needs: resources are
//! described by attribute sets, every attribute is hashed to a coordinate of
//! the identifier space, and the full descriptor is stored under each
//! attribute key so that a query for any single attribute finds the
//! providers.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A description of a resource offered by a peer (e.g. "8 CPUs, 32 GB RAM,
/// x86_64").
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ResourceDescriptor {
    /// Human-readable name of the resource ("worker-17").
    pub name: String,
    /// Attribute key/value pairs ("arch" -> "x86_64").
    pub attributes: BTreeMap<String, String>,
}

impl ResourceDescriptor {
    /// Create a descriptor with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        ResourceDescriptor {
            name: name.into(),
            attributes: BTreeMap::new(),
        }
    }

    /// Add an attribute (builder style).
    pub fn with_attribute(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.attributes.insert(key.into(), value.into());
        self
    }

    /// Serialise the descriptor into the byte payload stored in the DHT.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = String::new();
        out.push_str(&self.name);
        out.push('\n');
        for (k, v) in &self.attributes {
            out.push_str(k);
            out.push('=');
            out.push_str(v);
            out.push('\n');
        }
        out.into_bytes()
    }

    /// Parse a descriptor previously produced by [`ResourceDescriptor::encode`].
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let text = std::str::from_utf8(bytes).ok()?;
        let mut lines = text.lines();
        let name = lines.next()?.to_string();
        if name.is_empty() {
            return None;
        }
        let mut attributes = BTreeMap::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let (k, v) = line.split_once('=')?;
            attributes.insert(k.to_string(), v.to_string());
        }
        Some(ResourceDescriptor { name, attributes })
    }
}

/// The raw query string (`"key=value"`) used when calling
/// [`crate::TreePNode::dht_get`] for an attribute search.
pub fn attribute_query(key: &str, value: &str) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(key.len() + value.len() + 1);
    bytes.extend_from_slice(key.as_bytes());
    bytes.push(b'=');
    bytes.extend_from_slice(value.as_bytes());
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let d = ResourceDescriptor::new("worker-17")
            .with_attribute("arch", "x86_64")
            .with_attribute("cpus", "8")
            .with_attribute("mem", "32G");
        let encoded = d.encode();
        let back = ResourceDescriptor::decode(&encoded).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(ResourceDescriptor::decode(&[0xff, 0xfe]).is_none());
        assert!(ResourceDescriptor::decode(b"").is_none());
        assert!(ResourceDescriptor::decode(b"name\nnot-a-pair\n").is_none());
    }

    #[test]
    fn attribute_query_is_key_equals_value() {
        assert_eq!(attribute_query("arch", "x86_64"), b"arch=x86_64");
    }
}
