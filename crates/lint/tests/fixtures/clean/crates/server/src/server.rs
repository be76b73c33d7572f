pub fn dispatch(msg: crate::ClientMsg) {
    match msg {
        ClientMsg::Hello { .. } => {}
        ClientMsg::Bye => {}
    }
}

pub fn greet() -> crate::ServerMsg {
    crate::ServerMsg::Welcome { version: 2 }
}
