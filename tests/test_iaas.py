"""Tests for the EC2 fleet and the Lambda-compatible VM shim."""

import pytest

from repro import units
from repro.faas import FunctionConfig
from repro.iaas import Ec2Fleet, VmShim
from repro.network import Fabric
from repro.sim import Environment, RandomStreams


def make_stack():
    env = Environment()
    fabric = Fabric(env)
    rng = RandomStreams(seed=3)
    fleet = Ec2Fleet(env, fabric, rng)
    return env, fabric, rng, fleet


def run(env, gen):
    proc = env.process(gen)
    env.run(until=proc)
    return proc.value


class TestFleet:
    def test_provisioning_takes_boot_time(self):
        env, fabric, rng, fleet = make_stack()
        instances = run(env, fleet.provision("c6g.xlarge", count=4))
        assert len(instances) == 4
        assert 10.0 <= env.now <= 200.0  # tens of seconds of boot

    def test_invalid_count_rejected(self):
        env, fabric, rng, fleet = make_stack()
        with pytest.raises(ValueError):
            run(env, fleet.provision("c6g.xlarge", count=0))

    def test_instances_have_catalog_network_personality(self):
        env, fabric, rng, fleet = make_stack()
        instances = run(env, fleet.provision("c6g.xlarge", count=1))
        shaper = instances[0].endpoint.ingress
        assert shaper.refill_rate == pytest.approx(1.25 * units.Gbps)
        assert shaper.burst_rate == pytest.approx(10 * units.Gbps)
        assert shaper.capacity == pytest.approx(490 * units.GiB)
        # Burst duration (bucket / net drain) sits in the minutes range,
        # matching Figure 6.
        drain = shaper.burst_rate - shaper.refill_rate
        assert 120 <= shaper.capacity / drain <= 2700

    def test_vm_ids_restart_per_fleet(self):
        """Ids number a fleet's VMs, so a second run in one process
        gives its VMs (and their invocation records) the same ids."""
        for _ in range(2):
            env, fabric, rng, fleet = make_stack()
            instances = run(env, fleet.provision("c6g.xlarge", count=2))
            assert [vm.id for vm in instances] == [0, 1]
        assert [vm.id for vm in run(env, fleet.provision("c6g.xlarge"))] \
            == [2]

    def test_large_instances_have_no_burst(self):
        env, fabric, rng, fleet = make_stack()
        instances = run(env, fleet.provision("c6g.16xlarge", count=1))
        shaper = instances[0].endpoint.ingress
        assert shaper.burst_rate == pytest.approx(shaper.refill_rate)


class TestShim:
    def make_shim(self, vm_count=2, slots=1):
        env, fabric, rng, fleet = make_stack()
        instances = run(env, fleet.provision("c6g.xlarge", count=vm_count))
        shim = VmShim(env, instances, slots_per_vm=slots)
        return env, shim

    def test_handler_runs_without_coldstart(self):
        env, shim = self.make_shim()

        def handler(context, payload):
            yield context.env.timeout(0.5)
            return payload * 2

        shim.deploy(FunctionConfig(name="double", handler=handler))
        record = run(env, shim.invoke("double", 21))
        assert record.response == 42
        assert not record.cold
        # No coldstart: init time is pure queueing (zero when idle).
        assert record.init_duration == pytest.approx(0.0, abs=1e-9)

    def test_fragments_queue_on_busy_slots(self):
        env, shim = self.make_shim(vm_count=1, slots=1)

        def handler(context, payload):
            yield context.env.timeout(1.0)
            return payload

        shim.deploy(FunctionConfig(name="task", handler=handler))

        def scenario(env):
            procs = [env.process(shim.invoke("task", i)) for i in range(3)]
            records = []
            for proc in procs:
                records.append((yield proc))
            return records

        start = env.now
        records = run(env, scenario(env))
        assert env.now - start == pytest.approx(3.0, abs=0.01)
        # The queued invocations accumulated waiting time.
        waits = sorted(record.init_duration for record in records)
        assert waits == pytest.approx([0.0, 1.0, 2.0], abs=0.01)

    def test_round_robin_across_vms(self):
        env, shim = self.make_shim(vm_count=3, slots=1)

        def handler(context, payload):
            yield context.env.timeout(0.1)
            return context.sandbox_id

        shim.deploy(FunctionConfig(name="where", handler=handler))

        def scenario(env):
            procs = [env.process(shim.invoke("where")) for _ in range(3)]
            ids = []
            for proc in procs:
                record = yield proc
                ids.append(record.response)
            return ids

        ids = run(env, scenario(env))
        assert len(set(ids)) == 3

    def test_shim_requires_instances(self):
        env = Environment()
        with pytest.raises(ValueError):
            VmShim(env, [])

    def test_handler_error_raised(self):
        env, shim = self.make_shim()

        def failing(context, payload):
            yield context.env.timeout(0.01)
            raise ValueError("bad fragment")

        shim.deploy(FunctionConfig(name="bad", handler=failing))

        def scenario(env):
            try:
                yield from shim.invoke("bad")
            except ValueError as exc:
                return str(exc)

        assert run(env, scenario(env)) == "bad fragment"
