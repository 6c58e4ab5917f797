//! One client connection: the socket, its request scratch and its reply
//! buffer are `transport::ClientConn`, and nothing in product code
//! assembles a client exchange beside it — a source walk over what PR 19
//! deleted and over who may still call the one-shot free functions.

mod common;

#[test]
fn a_client_exchange_has_one_home() {
    let sources = common::product_sources();
    let gone = ["TcpTransport", "trait Transport", "fn post_gather("];
    let revived: Vec<String> = sources
        .iter()
        .flat_map(|(path, text)| {
            gone.iter()
                .filter(|n| text.contains(**n))
                .map(move |n| format!("{path}: {n}"))
        })
        .collect();
    assert!(revived.is_empty(), "deleted twins are back: {revived:#?}");

    // The POST writer and the one-shot reply readers: `http.rs` defines
    // them, the connection's module wraps them, tests and `benchmark/` may
    // call them — the non-test part of every other product file may not.
    let calls = [
        "post_gather_vectored(",
        "read_response_limited(",
        "read_response_headers_limited(",
    ];
    let homes = [
        "crates/transport/src/http.rs",
        "crates/transport/src/client.rs",
    ];
    let strays: Vec<String> = sources
        .iter()
        .filter(|(path, _)| !homes.iter().any(|h| path.ends_with(h)))
        .flat_map(|(path, text)| {
            let product = text.split("#[cfg(test)]").next().unwrap();
            calls
                .iter()
                .filter(|n| product.contains(**n))
                .map(move |n| format!("{path}: {n}"))
        })
        .collect();
    assert!(
        strays.is_empty(),
        "hand-assembled client exchanges: {strays:#?}"
    );
    let client = sources
        .iter()
        .find(|(path, _)| path.ends_with(homes[1]))
        .expect("the connection's module");
    assert!(client.1.contains(calls[0]) && client.1.contains("pub struct ClientConn"));
}
