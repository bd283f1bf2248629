"""Integration tests: the simulated servers against their clients."""

import pytest

from repro.apps import (
    LIGHTTPD,
    ServerStats,
    make_beanstalkd,
    make_httpd,
    make_memcached,
    make_nginx,
    make_redis,
)
from repro.clients import (
    make_apachebench,
    make_beanstalkd_benchmark,
    make_memslap,
    make_redis_benchmark,
    make_wrk,
)
from repro.costmodel import SEC_PS
from repro.world import World

# Every epoll scan and wakeup is checked against the brute-force scan.
pytestmark = pytest.mark.usefixtures("epoll_shadow")


def drive(server_main, client_mains, files=None, until_s=20.0):
    world = World()
    fs = world.kernel.fs(world.server)
    fs.create("/var/www/index.html", b"w" * 4096)
    if files:
        for path, data in files.items():
            fs.create(path, data)
    world.spawn(server_main, name="server", daemon=True)
    for index, main in enumerate(client_mains):
        world.kernel.spawn_task(world.client, main, name=f"cli{index}")
    world.run(until_ps=int(until_s * SEC_PS))
    return world


class TestHttpd:
    def test_wrk_serves_pages(self):
        stats = ServerStats()
        mains, report = make_wrk(duration_ps=SEC_PS // 100)
        drive(make_httpd(LIGHTTPD, stats=stats), mains)
        assert report.errors == 0
        assert report.requests > 50
        assert stats.requests == report.requests

    def test_apachebench_one_connection_per_request(self):
        stats = ServerStats()
        mains, report = make_apachebench(requests=60, concurrency=6,
                                         scale=1.0)
        drive(make_httpd(LIGHTTPD, stats=stats), mains)
        assert report.requests == 60
        assert stats.connections == 60  # no keepalive

    def test_response_carries_full_page(self):
        stats = ServerStats()
        mains, report = make_wrk(clients=1, duration_ps=SEC_PS // 1000)
        drive(make_httpd(LIGHTTPD, stats=stats,
                         page_path="/var/www/index.html"), mains)
        assert stats.bytes_out >= report.requests * 4096


class TestBeanstalkd:
    def test_pushes_inserted(self):
        stats = ServerStats()
        mains, report = make_beanstalkd_benchmark(workers=3, pushes=20,
                                                  scale=1.0)
        drive(make_beanstalkd(stats=stats), mains)
        assert report.errors == 0
        assert report.requests == 60
        assert stats.requests == 60

    def test_reserve_delete_cycle(self):
        stats = ServerStats()

        def client(ctx):
            from repro.clients.base import connect_with_retry, recv_until

            fd = yield from connect_with_retry(ctx, ("server", 11300))
            yield from ctx.send(fd, b"put payload-bytes\r\n")
            inserted = yield from recv_until(ctx, fd, b"\r\n")
            yield from ctx.send(fd, b"reserve\r\n")
            reserved = yield from recv_until(ctx, fd, b"\r\n")
            yield from ctx.send(fd, b"delete 1\r\n")
            deleted = yield from recv_until(ctx, fd, b"\r\n")
            return inserted, reserved, deleted

        world = World()
        world.spawn(make_beanstalkd(stats=stats), name="bs", daemon=True)
        task = world.kernel.spawn_task(world.client, client, name="c")
        world.run(until_ps=SEC_PS)
        inserted, reserved, deleted = task.threads[0].result
        assert inserted.startswith(b"INSERTED 1")
        assert reserved.startswith(b"RESERVED 1")
        assert deleted.startswith(b"DELETED")


class TestRedis:
    def test_benchmark_mix_served(self):
        stats = ServerStats()
        mains, report = make_redis_benchmark(clients=5, requests=70,
                                             scale=1.0)
        drive(make_redis(stats=stats, background_thread=False), mains)
        assert report.errors == 0
        assert report.requests == 70 // 5 * 5 * 7
        assert stats.errors == 0

    def test_incr_on_string_returns_error_not_crash(self):
        stats = ServerStats()

        def client(ctx):
            from repro.clients.base import connect_with_retry, recv_until

            fd = yield from connect_with_retry(ctx, ("server", 6379))
            yield from ctx.send(fd, b"SET k notanumber\r\n")
            yield from recv_until(ctx, fd, b"\r\n")
            yield from ctx.send(fd, b"INCR k\r\n")
            return (yield from recv_until(ctx, fd, b"\r\n"))

        world = World()
        world.spawn(make_redis(stats=stats, background_thread=False),
                    name="redis", daemon=True)
        task = world.kernel.spawn_task(world.client, client, name="c")
        world.run(until_ps=SEC_PS)
        assert task.threads[0].result.startswith(b"-ERR")

    def test_buggy_revision_crashes_on_hmget(self):
        from repro.apps.redis import BUGGY_REVISION

        stats = ServerStats()

        def client(ctx):
            from repro.clients.base import connect_with_retry, recv_until

            fd = yield from connect_with_retry(ctx, ("server", 6379))
            yield from ctx.send(fd, b"HMGET missing f1\r\n")
            return (yield from recv_until(ctx, fd, b"\r\n"))

        world = World()
        server = world.spawn(
            make_redis(stats=stats, revision=BUGGY_REVISION,
                       background_thread=False),
            name="redis", daemon=True)
        world.kernel.spawn_task(world.client, client, name="c",
                                daemon=True)
        world.run(until_ps=SEC_PS)
        assert server.exited and server.exit_status == 139


class TestMemcached:
    def test_memslap_roundtrip(self):
        stats = ServerStats()
        mains, report = make_memslap(initial_load=40, executions=40,
                                     concurrency=4, scale=1.0)
        drive(make_memcached(stats=stats), mains)
        assert report.errors == 0
        assert report.requests == 40
        # loads + mixed ops all hit the worker threads
        assert stats.requests >= 40

    def test_connections_distributed_across_workers(self):
        stats = ServerStats()
        mains, report = make_memslap(initial_load=8, executions=8,
                                     concurrency=4, scale=1.0)
        drive(make_memcached(stats=stats, workers=2), mains)
        assert stats.connections == 4


class TestNginx:
    def test_multiprocess_serving(self):
        stats = ServerStats()
        mains, report = make_wrk(port=8080, clients=8,
                                 duration_ps=SEC_PS // 100)
        drive(make_nginx(port=8080, stats=stats, workers=2), mains)
        assert report.errors == 0
        assert report.requests > 20
        assert stats.requests == report.requests
