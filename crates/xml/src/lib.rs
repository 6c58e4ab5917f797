//! # bsoap-xml — XML substrate for bSOAP
//!
//! Minimal, fast XML infrastructure built from scratch for the SOAP 1.1
//! stack:
//!
//! * [`escape`] — text/attribute escaping and entity resolution,
//! * [`name`] — qualified names and `NCName` validation,
//! * [`pull`] — a pull tokenizer producing events with *byte ranges* into
//!   the original buffer. Ranges (not copies) are what make the
//!   differential **de**serialization extension possible: the server can
//!   memcmp a leaf's byte range against the previous message and skip
//!   re-parsing entirely,
//! * [`canon`] — the pad canonicalizer tests compare wire bytes through.
//!
//! Scope: the subset of XML 1.0 that SOAP 1.1 section-5 encoding uses —
//! elements, attributes, character data, comments, XML declarations, and
//! the five predefined entities plus numeric character references. DTDs,
//! processing instructions and CDATA are intentionally rejected (SOAP
//! forbids DTDs outright).

#![deny(unsafe_op_in_unsafe_fn)]

pub mod canon;
pub mod escape;
pub mod name;
pub mod pull;

pub use canon::{pad_equivalent, strip_pad};
pub use escape::{
    escape_attr_into, escape_attr_into_with, escape_text_into, escape_text_into_with, find_special,
    find_special_at, unescape, Charset, EscapeError,
};
pub use name::{split_qname, validate_ncname, NameError};
pub use pull::{Event, PullError, PullParser};
