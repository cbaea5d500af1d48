"""Channel transfers over a whole filesystem: the sweep layer.

One file = one shard: a pure function of ``(bytes, plan, arq, config,
use_crc)``, which is what lets the sweep ride the repo's existing
machinery unchanged -- the :class:`~repro.core.supervisor.SupervisedPool`
for fan-out, the :class:`~repro.store.journal.ShardJournal` for
interruptible checkpointing (with :class:`ChannelReport` as the
journal codec), the :class:`~repro.store.runner.RunStore` shard cache,
and the ambient :class:`~repro.core.checkpoint.SweepController` for
signals and deadlines.  Reports merge in file-index order, so the
merged report -- and the concatenated trace-event stream -- is
bit-identical at any ``--workers`` count.
"""

from __future__ import annotations

import hashlib
import json
import time

from repro.channel.arq import ArqConfig, ChannelReport, run_channel_transfer
from repro.core.checkpoint import current_controller
from repro.core.codedigest import code_digest
from repro.core.experiment import _check_stop
from repro.core.supervisor import RunHealth, SupervisedPool
from repro.protocols.packetizer import PacketizerConfig
from repro.telemetry.core import current as _telemetry

__all__ = ["channel_fingerprint", "run_channel_sweep"]

#: Bumped when the shard payload or report layout changes, so stale
#: journals and cached shards are discarded rather than misread.
SWEEP_SCHEMA = "repro-channel/1"


def _packetizer_dict(config):
    """A canonical JSON-portable view of a :class:`PacketizerConfig`."""
    from dataclasses import fields

    payload = {}
    for spec in fields(config):
        value = getattr(config, spec.name)
        payload[spec.name] = getattr(value, "value", value)
    return payload


def channel_fingerprint(files, plan, arq, config, use_crc):
    """The sweep's identity: corpus bytes, code and every knob that shapes it."""
    payload = {
        "schema": SWEEP_SCHEMA,
        "code": code_digest(),
        "files": [hashlib.sha256(f.data).hexdigest() for f in files],
        "plan": plan.to_dict(),
        "arq": arq.to_dict(),
        "packetizer": _packetizer_dict(config),
        "use_crc": bool(use_crc),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _channel_shard(args):
    """Process-pool worker: one file through the channel, start to end."""
    data, plan, arq, config, use_crc, record = args
    events = [] if record else None
    report = run_channel_transfer(
        data, plan, arq=arq, config=config, use_crc=use_crc,
        trace_events=events,
    )
    return report, events


def _shard_key(fingerprint, index, data):
    """Hex shard key (store backends require hex object names)."""
    material = "channel|%s|%d|%s" % (
        fingerprint, index, hashlib.sha256(data).hexdigest()
    )
    return hashlib.sha256(material.encode()).hexdigest()


def _account_channel_shard(telemetry, report, elapsed):
    """Parent-side accounting: amounts from the report (bit-identical
    across worker counts), only elapsed seconds vary."""
    telemetry.count("channel.files", report.files or 1)
    telemetry.count("channel.frames", report.frames)
    telemetry.count("channel.cells", report.cells_sent)
    telemetry.count("channel.retransmissions", report.retransmissions)
    telemetry.count("channel.silent_corruption", report.delivered_corrupted)
    telemetry.count("channel.frames_failed", report.frames_failed)
    telemetry.meter("channel.cells_rate", report.cells_sent, elapsed)
    telemetry.observe("channel.shard_seconds", elapsed)


def run_channel_sweep(
    filesystem,
    plan,
    arq=None,
    config=None,
    use_crc=True,
    max_files=None,
    workers=None,
    health=None,
    store=None,
    journal=None,
    resume=None,
    events_out=None,
    shard_timeout=None,
):
    """Run every file of ``filesystem`` through the simulated channel.

    Returns the merged :class:`ChannelReport`.  ``events_out`` (a
    list) collects the per-file trace events, each file's stream
    prefixed with a ``{"event": "file", "index": k}`` boundary marker,
    in file order -- the replayable record.  Recording events disables
    the store shard cache (cached shards have no event stream), but
    reports stay bit-identical either way.

    ``journal``/``resume`` follow the splice sweep's checkpoint
    contract (ambient :func:`current_controller` defaults): the
    journal records each computed shard the store cache did not keep
    and revives entries through :class:`ChannelReport`, and
    signals/deadlines stop the sweep at shard boundaries with the
    usual partial-result degradation.
    """
    arq = arq or ArqConfig()
    config = config or PacketizerConfig()
    health = health if health is not None else RunHealth()
    telemetry = _telemetry()
    controller = current_controller()
    if resume is None:
        resume = controller.resume
    if shard_timeout is None:
        shard_timeout = controller.shard_timeout

    files = list(filesystem)
    if max_files is not None:
        files = files[:max_files]
    record = events_out is not None
    fingerprint = channel_fingerprint(files, plan, arq, config, use_crc)
    name = getattr(filesystem, "name", "<anonymous>")

    if journal is None and controller.journal_dir is not None:
        from repro.store.journal import ShardJournal, journal_path

        journal = ShardJournal(journal_path(
            controller.journal_dir, "channel-%s" % name, config
        ))

    keys = [
        _shard_key(fingerprint, index, file.data)
        for index, file in enumerate(files)
    ]
    done_shards = {}
    if journal is not None:
        done_shards = journal.open_run(
            fingerprint, label="channel:%s" % name, total=len(keys),
            resume=resume, codec=ChannelReport,
        )
        if done_shards:
            telemetry.count("checkpoint.resumed_shards", len(done_shards))

    # The store shard cache: reports only (event streams are never
    # cached), skipped entirely while recording a trace.
    guard = None
    if store is not None and not record:
        from repro.store.runner import _StoreGuard

        guard = _StoreGuard(store, health)

    results = {}
    pending = []
    for index, (key, file) in enumerate(zip(keys, files)):
        if key in done_shards:
            results[index] = (done_shards[key], None)
            continue
        if guard is not None:
            cached = guard._attempt(
                "channel shard read",
                lambda k=key: store.shards.get_object(
                    k, ChannelReport.from_json
                ),
            )
            if cached is not None:
                telemetry.count("channel.cached_shards")
                results[index] = (cached, None)
                continue
        pending.append(index)

    telemetry.gauge("experiment.workers", workers or 1)
    jobs = [
        (files[i].data, plan, arq, config, use_crc, record) for i in pending
    ]
    pool = SupervisedPool(
        _channel_shard, workers, health=health, timeout=shard_timeout
    )
    with telemetry.span("channel.sweep"):
        last = time.perf_counter()
        done = len(results)
        if jobs and not _check_stop(
            controller, health, telemetry, done, len(files), journal
        ):
            for position, part in pool.run(jobs):
                now = time.perf_counter()
                index = pending[position]
                report, events = part
                _account_channel_shard(telemetry, report, now - last)
                last = now
                results[index] = (report, events)
                done += 1
                kept = guard is not None and guard.put_shard(
                    keys[index], report
                )
                if not kept and journal is not None:
                    journal.record(keys[index], report)
                if _check_stop(
                    controller, health, telemetry, done, len(files), journal
                ):
                    break

    merged = ChannelReport()
    for index in sorted(results):
        report, events = results[index]
        merged = merged + report
        if record:
            events_out.append({"event": "file", "index": index})
            events_out.extend(events or [])
    for note in merged.notes:
        health.degrade(note)
    if journal is not None and len(results) == len(files):
        journal.complete()
    return merged
