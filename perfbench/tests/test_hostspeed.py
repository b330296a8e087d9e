import pathlib
import resource
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import hostspeed  # noqa: E402


def test_scale_is_reference_over_mean_kernel_time():
    host = hostspeed.HostSpeed()
    for _ in range(3):
        host.sample()
    assert len(host.samples) == 3 and min(host.samples) > 0
    assert host.scale() == hostspeed.REFERENCE_S / statistics.fmean(host.samples)


def test_kernel_unmaps_its_fresh_pages():
    host = hostspeed.HostSpeed()
    host.sample()
    before = resource.getrusage(resource.RUSAGE_SELF)
    host.sample()
    after = resource.getrusage(resource.RUSAGE_SELF)
    # every sample writes to fresh pages again: nothing was kept or reused
    pages = hostspeed.FIELD_BYTES // 4096
    assert after.ru_minflt - before.ru_minflt >= (
        hostspeed.TRANSFORMS + hostspeed.TOUCHES) * pages
