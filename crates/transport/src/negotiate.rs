//! Wire-format negotiation: the client/server handshake that moves a
//! keep-alive endpoint from SOAP XML onto the compact binary lane — and
//! back off it — without ever losing a request.
//!
//! The protocol is two headers, piggybacked on ordinary SOAP POSTs:
//!
//! * `X-BSOAP-Accept` — the sender's *capability advert*: "I can also
//!   speak `bin1`". A client offers it on every request while it wants
//!   the binary lane; a server echoes it on every response while the
//!   lane is enabled.
//! * `X-BSOAP-Format` — what format *this* message body actually is
//!   (`xml` or `bin1`). Absent means `xml`; receivers may additionally
//!   sniff the 4-byte binary magic as a belt-and-braces fallback.
//!
//! The client state machine is deliberately conservative:
//!
//! 1. **Undecided** — every request goes out as XML (a server that has
//!    never heard of the headers just ignores them and answers
//!    normally). The offer rides along.
//! 2. First response carrying the server's `bin1` advert → **Binary**:
//!    subsequent requests use the binary body format. A response with
//!    no advert (or an unknown token) → **Xml**, settled.
//! 3. An HTTP 415 to a binary body (the server disabled the lane
//!    mid-keep-alive) → **Xml**, settled, and the caller re-sends the
//!    same payload as XML exactly once. No request is lost.
//!
//! This module is deliberately independent of `bsoap-core`: formats are
//! their wire tokens (strings) here; `bsoap::rpc` maps tokens to
//! `WireFormat` at the boundary.

use crate::http::Head;

/// Request/response header carrying the sender's capability advert.
pub const HDR_ACCEPT: &str = "X-BSOAP-Accept";
/// Request/response header declaring the body's actual wire format.
pub const HDR_FORMAT: &str = "X-BSOAP-Format";
/// Lowercased [`HDR_ACCEPT`] (a [`Head`] compares names
/// case-insensitively; owned header lists lower-case them).
pub const HDR_ACCEPT_LOWER: &str = "x-bsoap-accept";
/// Lowercased [`HDR_FORMAT`].
pub const HDR_FORMAT_LOWER: &str = "x-bsoap-format";
/// Wire token for the compact binary format (version 1).
pub const TOKEN_BINARY: &str = "bin1";
/// Wire token for the SOAP XML format.
pub const TOKEN_XML: &str = "xml";

/// Does an `X-BSOAP-Accept` header value advertise the binary lane?
/// Values are comma-separated tokens; unknown tokens are ignored.
pub fn advertises_binary(value: &str) -> bool {
    value
        .split(',')
        .any(|t| t.trim().eq_ignore_ascii_case(TOKEN_BINARY))
}

/// Where negotiation for one endpoint currently stands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NegotiationState {
    /// No response observed yet: send XML, keep offering.
    Undecided,
    /// The server advertised `bin1`: send binary bodies.
    Binary,
    /// Settled on XML — either the server never advertised the lane, or
    /// a 415 forced a downgrade. Settled states stop offering.
    Xml,
}

/// Per-endpoint negotiation state machine (client side).
///
/// Drive it with [`Negotiator::request_headers`] before each send,
/// [`Negotiator::observe`] on each reply, and
/// [`Negotiator::on_unsupported`] when a send draws HTTP 415.
#[derive(Clone, Debug)]
pub struct Negotiator {
    state: NegotiationState,
    /// Whether this client wants the binary lane at all. When false the
    /// machine is inert: no offer, XML forever.
    offer: bool,
}

impl Negotiator {
    /// A negotiator that offers the binary lane iff `offer_binary`.
    pub fn new(offer_binary: bool) -> Self {
        Negotiator {
            state: if offer_binary {
                NegotiationState::Undecided
            } else {
                NegotiationState::Xml
            },
            offer: offer_binary,
        }
    }

    /// Current state.
    pub fn state(&self) -> NegotiationState {
        self.state
    }

    /// The wire token for the body format the next request should use.
    pub fn body_token(&self) -> &'static str {
        match self.state {
            NegotiationState::Binary => TOKEN_BINARY,
            NegotiationState::Undecided | NegotiationState::Xml => TOKEN_XML,
        }
    }

    /// Headers to attach to the next request: the format declaration,
    /// plus the capability offer while the lane is wanted and not ruled
    /// out.
    pub fn request_headers(&self) -> Vec<(String, String)> {
        let mut h = vec![(HDR_FORMAT.to_owned(), self.body_token().to_owned())];
        if self.offer && self.state != NegotiationState::Xml {
            h.push((HDR_ACCEPT.to_owned(), TOKEN_BINARY.to_owned()));
        }
        h
    }

    /// Feed a completed exchange's reply head. Only an *undecided*
    /// endpoint moves: a server advert (an `X-BSOAP-Accept` naming the
    /// binary lane) upgrades to binary, its absence settles XML. Once
    /// settled (either way), later responses don't flip the lane — only
    /// [`Negotiator::on_unsupported`] forces a downgrade.
    pub fn observe(&mut self, reply: &Head) {
        let mut headers = reply.headers();
        self.settle(
            headers.any(|(n, v)| n.eq_ignore_ascii_case(HDR_ACCEPT) && advertises_binary(v)),
        );
    }

    /// [`Negotiator::observe`] over owned `(lower-cased name, value)`
    /// header pairs.
    #[doc(hidden)]
    pub fn observe_response(&mut self, headers: &[(String, String)]) {
        let mut headers = headers.iter();
        self.settle(headers.any(|(n, v)| n == HDR_ACCEPT_LOWER && advertises_binary(v)));
    }

    fn settle(&mut self, advert: bool) {
        if self.state == NegotiationState::Undecided {
            self.state = if advert {
                NegotiationState::Binary
            } else {
                NegotiationState::Xml
            };
        }
    }

    /// The server answered 415 Unsupported Media Type: downgrade to XML,
    /// permanently for this endpoint. Returns `true` when the failed
    /// request was a *binary* body and should be retried once as XML
    /// (the downgrade path must not lose a request); `false` when the
    /// request was already XML (a 415 then is not a negotiation signal).
    pub fn on_unsupported(&mut self) -> bool {
        let was_binary = self.state == NegotiationState::Binary;
        self.state = NegotiationState::Xml;
        was_binary
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hdrs(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|(n, v)| (n.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn first_request_is_xml_with_offer() {
        let n = Negotiator::new(true);
        assert_eq!(n.body_token(), TOKEN_XML);
        let h = n.request_headers();
        assert!(h.contains(&(HDR_FORMAT.to_owned(), TOKEN_XML.to_owned())));
        assert!(h.contains(&(HDR_ACCEPT.to_owned(), TOKEN_BINARY.to_owned())));
    }

    #[test]
    fn advert_upgrades_to_binary() {
        let mut n = Negotiator::new(true);
        n.observe_response(&hdrs(&[(HDR_ACCEPT_LOWER, "bin1")]));
        assert_eq!(n.state(), NegotiationState::Binary);
        assert_eq!(n.body_token(), TOKEN_BINARY);
    }

    #[test]
    fn missing_or_unknown_advert_settles_xml() {
        let mut n = Negotiator::new(true);
        n.observe_response(&hdrs(&[("content-type", "text/xml")]));
        assert_eq!(n.state(), NegotiationState::Xml);
        // Settled: a later advert does not flip the lane mid-stream.
        n.observe_response(&hdrs(&[(HDR_ACCEPT_LOWER, "bin1")]));
        assert_eq!(n.state(), NegotiationState::Xml);

        let mut n = Negotiator::new(true);
        n.observe_response(&hdrs(&[(HDR_ACCEPT_LOWER, "bin9,zstd")]));
        assert_eq!(n.state(), NegotiationState::Xml, "unknown tokens ignored");
    }

    #[test]
    fn comma_separated_advert_matches() {
        assert!(advertises_binary("bin1"));
        assert!(advertises_binary("zstd, bin1"));
        assert!(advertises_binary(" BIN1 "));
        assert!(!advertises_binary("bin2"));
    }

    #[test]
    fn unsupported_downgrades_and_requests_one_retry() {
        let mut n = Negotiator::new(true);
        n.observe_response(&hdrs(&[(HDR_ACCEPT_LOWER, "bin1")]));
        assert_eq!(n.state(), NegotiationState::Binary);
        assert!(n.on_unsupported(), "binary body bounced: retry as XML");
        assert_eq!(n.state(), NegotiationState::Xml);
        assert_eq!(n.body_token(), TOKEN_XML);
        // No more offers after the downgrade, and a 415 to an XML body
        // is not a retry signal.
        assert!(n
            .request_headers()
            .iter()
            .all(|(name, _)| name != HDR_ACCEPT));
        assert!(!n.on_unsupported());
    }

    #[test]
    fn disabled_offer_is_inert() {
        let mut n = Negotiator::new(false);
        assert_eq!(n.state(), NegotiationState::Xml);
        assert!(n
            .request_headers()
            .iter()
            .all(|(name, _)| name != HDR_ACCEPT));
        n.observe_response(&hdrs(&[(HDR_ACCEPT_LOWER, "bin1")]));
        assert_eq!(n.state(), NegotiationState::Xml);
    }
}
