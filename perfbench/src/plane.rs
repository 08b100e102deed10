//! Building the threaded deployment the threaded workloads drive: a
//! `ServiceContainer` with per-shard catalogs, reservoir nodes and one
//! client node. In the traced run the catalog drivers and the content
//! stores are wrapped in the timing decorators of [`crate::trace`]; in the
//! untraced run the program's own types are used unchanged.

use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use bitdew_core::services::catalog::DbAccess;
use bitdew_core::{BitdewNode, RuntimeConfig, ServiceContainer};
use bitdew_storage::{ConnectionPool, DbDriver, DewDb, EmbeddedDriver, SyncPolicy};
use bitdew_transport::{Fabric, FileStore, MemStore};

use crate::trace::{StoreRole, TimedDriver, TimedStore};

/// Where each shard's catalog lives.
pub enum Catalog {
    /// The container's default: an in-memory DewDB per shard.
    InMemory,
    /// A durable DewDB per shard (`DewDb::open`, default
    /// `SyncPolicy::EveryAppend`) under this fresh directory.
    Durable(PathBuf),
}

pub struct Deployment {
    pub container: Arc<ServiceContainer>,
    pub hosts: Vec<Arc<BitdewNode>>,
    pub client: Arc<BitdewNode>,
}

fn store(traced: bool, role: StoreRole) -> Arc<dyn FileStore> {
    let plain: Arc<dyn FileStore> = MemStore::new();
    if traced {
        TimedStore::wrap(plain, role)
    } else {
        plain
    }
}

/// Start a container with `shards` catalog shards and attach `hosts`
/// reservoir nodes plus one client node.
pub fn deploy(shards: usize, catalog: &Catalog, hosts: usize, traced: bool) -> Deployment {
    let config = RuntimeConfig {
        shards: NonZeroUsize::new(shards).expect("at least one shard"),
        ..RuntimeConfig::default()
    };
    let make_db = |shard: usize| {
        let db = match catalog {
            Catalog::InMemory => DewDb::in_memory(),
            Catalog::Durable(dir) => {
                DewDb::open(dir.join(format!("shard-{shard}")), SyncPolicy::EveryAppend)
                    .expect("open the durable catalog")
            }
        };
        let mut driver: Arc<dyn DbDriver> = Arc::new(EmbeddedDriver::new(db));
        if traced {
            driver = Arc::new(TimedDriver(driver));
        }
        DbAccess::Pooled(ConnectionPool::new(driver, 8))
    };
    let container = ServiceContainer::start_with_db(
        Fabric::new(),
        store(traced, StoreRole::Repository),
        config,
        make_db,
    );
    let hosts = (0..hosts)
        .map(|_| BitdewNode::with_store(Arc::clone(&container), store(traced, StoreRole::Host)))
        .collect();
    let client = BitdewNode::new_client(Arc::clone(&container));
    Deployment {
        container,
        hosts,
        client,
    }
}

/// Total bytes of the write-ahead logs under a durable catalog directory.
pub fn wal_bytes(dir: &Path) -> u64 {
    fn walk(dir: &Path) -> u64 {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return 0;
        };
        entries
            .flatten()
            .map(|e| {
                let path = e.path();
                if path.is_dir() {
                    walk(&path)
                } else if path.file_name().is_some_and(|n| n == "wal.log") {
                    e.metadata().map(|m| m.len()).unwrap_or(0)
                } else {
                    0
                }
            })
            .sum()
    }
    walk(dir)
}
