//! One client connection: the socket, its request scratch and its reply
//! buffer are `transport::ClientConn`, and nothing in product code
//! assembles a client exchange beside it — the `one_client_connection`
//! rows of the rule table: what PR 19 deleted, who may still call the
//! one-shot free functions, and that none of them reads without a bound.
//! Above the connection, each client-side decision has one home too (PR
//! 22): the lane is `Client::call_on`'s argument, a call site's template
//! keys are built once, and the twins that re-derived them stay deleted.

mod common;

#[test]
fn a_client_exchange_has_one_home() {
    common::rules::enforce("one_client_connection");
}
