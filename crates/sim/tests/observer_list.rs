//! The engine's observer list: any number of observers watch one run.
//! Every hook fires on each attached observer, in attach order, before
//! the engine fires the next one, and probes run at the smallest interval
//! any observer asks for.

use mdx_core::{Header, RouteChange, Sr2201Routing};
use mdx_fault::FaultSet;
use mdx_sim::{InjectSpec, PacketId, SimConfig, SimObserver, SimOutcome, Simulator, WaitSnapshot};
use mdx_topology::{ChannelId, MdCrossbar, Node, Shape};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// One hook call: the recorder's attach slot, the hook, the cycle, and
/// the hook's arguments.
type HookLog = Rc<RefCell<Vec<(usize, &'static str, u64, String)>>>;

/// Logs every hook it sees into a log shared with its sibling observers,
/// tagged with its attach slot.
struct Recorder {
    slot: usize,
    probe: Option<u64>,
    log: HookLog,
}

impl Recorder {
    fn attach(sim: &mut Simulator, log: &HookLog, slot: usize, probe: Option<u64>) {
        sim.add_observer(Recorder {
            slot,
            probe,
            log: log.clone(),
        });
    }

    fn note(&self, hook: &'static str, now: u64, args: String) {
        self.log.borrow_mut().push((self.slot, hook, now, args));
    }
}

impl SimObserver for Recorder {
    fn on_inject(&mut self, id: PacketId, spec: &InjectSpec, now: u64) {
        self.note("inject", now, format!("{id:?} {}", spec.src_pe));
    }
    fn on_hop(&mut self, id: PacketId, at: Node, in_channel: Option<ChannelId>, now: u64) {
        self.note("hop", now, format!("{id:?} {at:?} {in_channel:?}"));
    }
    fn on_rc_change(
        &mut self,
        id: PacketId,
        at: Node,
        from: RouteChange,
        to: RouteChange,
        now: u64,
    ) {
        self.note("rc_change", now, format!("{id:?} {at:?} {from:?} {to:?}"));
    }
    fn on_blocked(
        &mut self,
        id: PacketId,
        channel: ChannelId,
        vc: u8,
        holder: Option<PacketId>,
        now: u64,
    ) {
        let args = format!("{id:?} {channel:?} {vc} {holder:?}");
        self.note("blocked", now, args);
    }
    fn on_unblocked(&mut self, id: PacketId, channel: ChannelId, vc: u8, waited: u64, now: u64) {
        let args = format!("{id:?} {channel:?} {vc} {waited}");
        self.note("unblocked", now, args);
    }
    fn on_flit(&mut self, channel: ChannelId, vc: u8, occupancy: usize, now: u64) {
        self.note("flit", now, format!("{channel:?} {vc} {occupancy}"));
    }
    fn on_gather(&mut self, id: PacketId, depth: usize, now: u64) {
        self.note("gather", now, format!("{id:?} {depth}"));
    }
    fn on_emission(&mut self, id: PacketId, depth: usize, now: u64) {
        self.note("emission", now, format!("{id:?} {depth}"));
    }
    fn on_delivery(&mut self, id: PacketId, pe: usize, now: u64) {
        self.note("delivery", now, format!("{id:?} {pe}"));
    }
    fn on_packet_finished(&mut self, id: PacketId, now: u64) {
        self.note("finished", now, format!("{id:?}"));
    }
    fn probe_interval(&self) -> Option<u64> {
        self.probe
    }
    fn on_probe(&mut self, now: u64, waits: &[WaitSnapshot]) {
        self.note("probe", now, format!("{waits:?}"));
    }
}

/// Two broadcasts and crossing unicasts on Fig. 2: gathers, emissions,
/// RC rewrites and blocked episodes all happen.
fn busy_sim() -> Simulator {
    let net = Arc::new(MdCrossbar::build(Shape::fig2()));
    let shape = net.shape().clone();
    let scheme = Arc::new(Sr2201Routing::new(net.clone(), &FaultSet::none()).unwrap());
    let mut sim = Simulator::new(net.graph().clone(), scheme, SimConfig::default());
    for src in [0usize, 7] {
        sim.schedule(InjectSpec {
            src_pe: src,
            header: Header::broadcast_request(shape.coord_of(src)),
            flits: 8,
            inject_at: 0,
        });
    }
    for (src, dst) in [(1, 11), (2, 8), (4, 3), (5, 9)] {
        sim.schedule(InjectSpec {
            src_pe: src,
            header: Header::unicast(shape.coord_of(src), shape.coord_of(dst)),
            flits: 6,
            inject_at: 0,
        });
    }
    sim
}

#[test]
fn every_hook_fires_on_each_observer_in_attach_order() {
    let mut sim = busy_sim();
    let log = HookLog::default();
    Recorder::attach(&mut sim, &log, 0, Some(16));
    Recorder::attach(&mut sim, &log, 1, None);
    assert_eq!(sim.run().outcome, SimOutcome::Completed);

    let log = log.borrow();
    // Each hook reaches slot 0 and then slot 1, with identical arguments,
    // before the engine fires the next one.
    assert_eq!(log.len() % 2, 0);
    for pair in log.chunks(2) {
        assert_eq!((pair[0].0, pair[1].0), (0, 1), "{pair:?}");
        assert_eq!(
            (pair[0].1, pair[0].2, &pair[0].3),
            (pair[1].1, pair[1].2, &pair[1].3)
        );
    }
    for hook in [
        "inject",
        "hop",
        "rc_change",
        "blocked",
        "unblocked",
        "flit",
        "gather",
        "emission",
        "delivery",
        "finished",
        "probe",
    ] {
        assert!(log.iter().any(|e| e.1 == hook), "no `{hook}` hook fired");
    }
}

#[test]
fn probes_fire_at_the_smallest_interval_any_observer_asks_for() {
    let mut sim = busy_sim();
    let log = HookLog::default();
    Recorder::attach(&mut sim, &log, 0, Some(8));
    Recorder::attach(&mut sim, &log, 1, Some(3));
    let cycles = sim.run().stats.cycles;

    let probes = |slot: usize| -> Vec<u64> {
        log.borrow()
            .iter()
            .filter(|e| e.0 == slot && e.1 == "probe")
            .map(|e| e.2)
            .collect()
    };
    // Every executed cycle on the 3-grid, for both observers.
    let want: Vec<u64> = (0..cycles).filter(|t| t % 3 == 0).collect();
    assert!(want.len() >= 3, "run too short: {cycles} cycles");
    assert_eq!(probes(0), want);
    assert_eq!(probes(1), want);
}
