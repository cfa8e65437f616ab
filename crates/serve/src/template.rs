//! Replay templates: measure one job's exact span schedule once, then
//! re-run it for free.
//!
//! The simulator's cost model is content-independent — a frame's simulated
//! cost depends on shapes and calibration, never on pixel values — and
//! every fleet device is configured identically. So the full span schedule
//! of one *functional* job (names, op classes, stream assignment, charged
//! durations, in enqueue order) is an exact timing witness for every other
//! job of the same shape. A [`JobTemplate`] captures that witness;
//! replaying it through [`Device::replay_on`] on a synchronized device
//! advances clocks, engines and the profiler exactly as the functional run
//! would, at zero compute cost. This is the serving-scale version of the
//! `BatchScheduler`'s own warm-frame timing replay.

use mdarray::NdArray;
use simgpu::{
    BatchScheduler, Device, ExecOptions, LaunchPlan, OpClass, RunStats, ScheduleError, StreamId,
};

use crate::engine::ServeError;

/// One span of a captured job schedule: operation name, class (engine),
/// the capture-time stream index, and the exact charged duration.
#[derive(Debug, Clone)]
pub(crate) struct TemplateSpan {
    pub name: String,
    pub class: OpClass,
    pub stream: usize,
    pub dur_us: f64,
}

/// The measured schedule of one job shape, keyed by its frame count.
#[derive(Debug, Clone)]
pub struct JobTemplate {
    /// Frames a job of this shape charges (functional + replayed).
    pub total_frames: usize,
    /// Simulated duration of the job on an idle device, µs.
    pub dur_us: f64,
    pub(crate) spans: Vec<TemplateSpan>,
    pub(crate) stats: RunStats,
}

impl JobTemplate {
    /// Measure a `total_frames`-frame job on `device` and capture its
    /// schedule. `probe_frames` supplies at least one and at most
    /// `total_frames` functional frames (the scheduler measures frame 0 and
    /// replays the rest, so one frame is enough); the probe's outputs are
    /// discarded. The device is left synchronized — callers typically probe
    /// on a scratch clone so the serving fleet's clocks stay untouched.
    pub fn capture(
        plan: &LaunchPlan<'_>,
        device: &mut Device,
        exec: &ExecOptions,
        probe_frames: &[Vec<NdArray<i64>>],
        total_frames: usize,
    ) -> Result<JobTemplate, ServeError> {
        if probe_frames.is_empty() {
            return Err(ServeError::Config(
                "template capture needs at least one functional probe frame".into(),
            ));
        }
        let span_mark = device.profiler.spans().count();
        let t0 = device.now_us();
        let opts = ExecOptions { total_frames, ..*exec };
        let (_, stats) = BatchScheduler::new(plan)
            .run(device, probe_frames, &opts)
            .map_err(ServeError::Schedule)?;
        let dur_us = device.now_us() - t0;
        let spans = device
            .profiler
            .spans()
            .skip(span_mark)
            .map(|sp| TemplateSpan {
                name: sp.name.clone(),
                class: sp.class,
                stream: sp.stream,
                dur_us: sp.duration_us(),
            })
            .collect();
        Ok(JobTemplate { total_frames, dur_us, spans, stats })
    }

    /// Replay the captured schedule on `device`, which must be idle
    /// (synchronized). Capture-time stream indices are mapped, in order of
    /// first appearance, onto `replay_streams` — the device's dedicated
    /// replay stream set, grown on demand. Returns the per-job
    /// [`RunStats`]; the device ends synchronized, its clock advanced by
    /// [`JobTemplate::dur_us`] up to f64 accumulation ulps (the replay runs
    /// at a different clock offset than the capture, and summation is not
    /// shift-invariant at the last bit). The drift is deterministic —
    /// pure IEEE arithmetic, no libm — so replayed traces remain
    /// golden-able byte for byte.
    pub(crate) fn replay(
        &self,
        device: &mut Device,
        replay_streams: &mut Vec<StreamId>,
    ) -> Result<RunStats, ScheduleError> {
        // Map capture-time stream indices -> dense replay-stream slots.
        let mut slot_of: Vec<(usize, usize)> = Vec::new();
        for sp in &self.spans {
            let slot = match slot_of.iter().find(|(s, _)| *s == sp.stream) {
                Some(&(_, slot)) => slot,
                None => {
                    let slot = slot_of.len();
                    slot_of.push((sp.stream, slot));
                    slot
                }
            };
            while replay_streams.len() <= slot {
                if replay_streams.is_empty() {
                    replay_streams.push(StreamId::DEFAULT);
                } else {
                    replay_streams.push(device.create_stream());
                }
            }
            device
                .replay_on(&sp.name, sp.class, sp.dur_us, replay_streams[slot])
                .map_err(|e| ScheduleError::Plan(format!("template replay: {e}")))?;
        }
        device.synchronize();
        Ok(self.stats.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::{frame, triple_kernel, triple_plan};

    #[test]
    fn capture_rejects_more_probe_frames_than_the_template_charges() {
        let (kernel, config) = triple_kernel();
        let plan = triple_plan(&kernel, config);
        let probe: Vec<_> = (0..3).map(frame).collect();
        let mut device = Device::gtx480();
        // A 2-frame template measured over 3 executed frames would charge
        // every replay for a frame it never runs.
        let err = JobTemplate::capture(&plan, &mut device, &ExecOptions::default(), &probe, 2);
        assert!(
            matches!(err, Err(ServeError::Schedule(ScheduleError::Config(_)))),
            "{:?}",
            err.map(|t| t.total_frames)
        );
        assert_eq!(device.now_us(), 0.0);

        let tpl =
            JobTemplate::capture(&plan, &mut device, &ExecOptions::default(), &probe, 3).unwrap();
        assert_eq!((tpl.total_frames, tpl.stats.launches), (3, 3));
    }
}
