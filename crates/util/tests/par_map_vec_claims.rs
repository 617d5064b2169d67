//! `par_map_vec` hands out one item at a time: with two workers, an item
//! that blocks until a later item has run still sees that item run, because
//! the other worker claims it.

use rlb_util::par::par_map_vec;
use std::sync::mpsc;
use std::time::Duration;

enum Job {
    /// Waits for the message `Send` delivers.
    Wait(mpsc::Receiver<()>),
    Send(mpsc::Sender<()>),
    Idle,
}

#[test]
fn a_blocked_item_does_not_hold_back_the_next_one() {
    // The only test in this binary, so nothing else reads the variable.
    std::env::set_var("RLB_THREADS", "2");
    let (tx, rx) = mpsc::channel();
    let done = par_map_vec(
        vec![Job::Wait(rx), Job::Send(tx), Job::Idle],
        |job| match job {
            Job::Wait(rx) => rx.recv_timeout(Duration::from_secs(10)).is_ok(),
            Job::Send(tx) => tx.send(()).is_ok(),
            Job::Idle => true,
        },
    );
    assert_eq!(done, [true, true, true]);
}
