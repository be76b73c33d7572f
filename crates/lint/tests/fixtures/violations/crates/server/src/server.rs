pub fn dispatch(msg: crate::ClientMsg) {
    match msg {
        ClientMsg::Hello { .. } => {}
        ClientMsg::Data(_) => {}
        _ => {}
    }
}

pub fn wait(policy: crate::SleepPolicy) {
    match policy {
        SleepPolicy::Naive => {}
        SleepPolicy::Hybrid => {}
        _ => {}
    }
}

pub fn scan_loop(s: &crate::Shared) {
    let schedule = s.schedule.lock();
    std::thread::sleep(step());
    drop(schedule);
}

fn step() -> core::time::Duration {
    core::time::Duration::from_millis(1)
}

pub fn greet() -> crate::ServerMsg {
    ServerMsg::Welcome
}
