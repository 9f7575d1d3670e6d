//! The structural-reachability oracle the multicast reliability and pub/sub
//! suites share: which nodes a scoped dissemination from an origin can
//! reach over the overlay structure that exists at probe time. The origin's
//! own tree, plus every tree whose root the top-level bus walk reaches from
//! the origin's root. Edges nobody knows about (e.g. two post-churn roots
//! that never discovered each other on the top bus) are missing from the
//! model too, so no delivery over them is expected.

use simnet::{NodeAddr, Simulation};
use std::collections::BTreeSet;
use treep::TreePNode;

/// The root of the tree `addr` belongs to: the end of its parent chain.
/// Returns `None` for a broken chain (dead or unknown parent) or a cycle.
pub fn root_of(sim: &Simulation<TreePNode>, addr: NodeAddr) -> Option<NodeAddr> {
    let mut cur = addr;
    for _ in 0..32 {
        let node = sim.node(cur).filter(|_| sim.is_alive(cur))?;
        match node.tables().parent() {
            Some(p) => cur = p.addr,
            None => return Some(cur),
        }
    }
    None
}

/// The roots the top-level bus walk from `root` reaches (including
/// `root`): the walk runs at the root's own maximum level, leftward and
/// rightward, each hop using the *visited node's* bus table, exactly like
/// the dissemination. Dead bus neighbours stop the walk in the model (the
/// real run may do better via re-route — the model is deliberately the
/// lower bound the protocol must meet). A walk ends at the first node it
/// has already reached.
pub fn bus_reach(sim: &Simulation<TreePNode>, root: NodeAddr) -> BTreeSet<NodeAddr> {
    let mut reached = BTreeSet::from([root]);
    let Some(node) = sim.node(root) else {
        return reached;
    };
    let level = node.max_level();
    if level == 0 {
        return reached;
    }
    for leftward in [true, false] {
        let mut cur = root;
        while let Some(n) = sim.node(cur).filter(|_| sim.is_alive(cur)) {
            let (l, r) = n.tables().bus_neighbors(level, n.id());
            let next = if leftward { l } else { r };
            match next.map(|e| e.addr) {
                Some(next) if sim.is_alive(next) && reached.insert(next) => cur = next,
                _ => break,
            }
        }
    }
    reached
}

/// True when `addr`'s ancestor chain (including `addr` itself) passes
/// through any node of `reach` — i.e. the dissemination's descent from one
/// of the walk-visited nodes covers `addr`'s subtree position.
pub fn ancestor_chain_meets(
    sim: &Simulation<TreePNode>,
    addr: NodeAddr,
    reach: &BTreeSet<NodeAddr>,
) -> bool {
    let mut cur = addr;
    for _ in 0..32 {
        if reach.contains(&cur) {
            return true;
        }
        let Some(node) = sim.node(cur).filter(|_| sim.is_alive(cur)) else {
            return false;
        };
        match node.tables().parent() {
            Some(p) => cur = p.addr,
            None => return false,
        }
    }
    false
}
