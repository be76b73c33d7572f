#[derive(Serialize, Deserialize)]
pub enum ClientMsg {
    Hello { version: u16 },
    Data(Vec<u8>),
    Bye,
}

#[derive(Serialize, Deserialize)]
pub enum ServerMsg {
    Welcome,
    DeliverMany { to: Vec<u32> },
}

#[derive(Serialize, Deserialize)]
pub enum ClusterMsg {
    Assign { shard: u32 },
    Barrier { epoch: u64 },
    Shutdown,
}
