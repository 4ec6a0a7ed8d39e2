"""Golden outputs: sha256 digests of CLI output bytes recorded from a
reference build, so refactors of the engine must reproduce the exact text
and JSON, not just agree with themselves between two runs."""

import hashlib
import io
import os
import shutil
import subprocess
from pathlib import Path

import pytest

from derleib.cli import main

GOLDEN = [
    (("derive", "--family", "heisenberg", "--n", "2", "--a", "2", "--json"), 0,
     "ff4f0a251e7ac4f328c57a6ddb40409f4dda9ba204ba6036030d1975af71a57d"),
    (("derive", "--family", "heisenberg", "--n", "2", "--a", "2", "--table"), 0,
     "5312f836b6a0207098fb3cb4bb4de8cdbd818e4d20e00a3f540d2e4f5ec19a9c"),
    (("derive", "--family", "kronecker", "--n", "2", "--order", "interleaved",
      "--json"), 0,
     "efdc7bde6cec8cab37cca0a5f94e48b4a80dd9db0c4dd7c862c2f13ab1f42c85"),
    (("derive", "--family", "kronecker", "--n", "2", "--order", "interleaved",
      "--table"), 0,
     "e8d63fb27161c869e1aef4b4a7038921016f29bb54ece1a563a6c576eb1f616a"),
    (("derive", "--family", "dieudonne", "--n", "2", "--json"), 0,
     "1ab3c9e9fbfddd377552ac9b622925fed03ee6759720eb293fdab2e168b77ef7"),
    (("derive", "--family", "dieudonne", "--n", "2", "--table"), 0,
     "197521d5bc870491f5849f677e107ca6f906177a4c29f598de473ca7149a1459"),
    (("catalog", "--family", "realify-heisenberg", "--n", "1", "--a", "0",
      "--b", "1"), 0,
     "769b8ed1767cfd1cdb0551e799141b10b51e385eac4d0511a18c6cdaeecf94a9"),
    (("verify-paper", "--nmax", "2", "--json"), 1,
     "aab939d3f572b68d08bced7993ef15fd2cd7233ec48a37bb1266bb816d0e52d5"),
    (("verify-paper", "--nmax", "4", "--json"), 1,
     "97999b37b79dba6bba3faceec32dce9b1db184babcf39131cd582e5e08300a23"),
    (("verify-paper", "--nmax", "6", "--json"), 1,
     "0722ae85e831316bfea844c367a1b246b52a9733ebf585080d8e35e20e67aafe"),
    (("analyze", "--family", "heisenberg-lie", "--n", "2", "--der"), 0,
     "201128ea5b46f6874c703f270330d28b6e480fd90778921640293e2b11588dfe"),
    (("analyze", "--family", "heisenberg-lie", "--n", "3", "--der"), 0,
     "60461b6bbca1d72918da51082c78953dfede3d191231b7b9b1d8aa989a11d2cb"),
    (("analyze", "--family", "kronecker", "--n", "2"), 0,
     "bc10eeab9c8fe56a3c5f42b7a2a0e46e87b20ced4f78ee8b841d42acfe25ef54"),
    (("derive", "--family", "dieudonne", "--n", "3", "--table"), 0,
     "c920c4b10ca8e464159c6394f0149a623cca3eadab3420f3c6741faa37189bf8"),
    (("derive", "--family", "realify-heisenberg", "--n", "1", "--a", "1",
      "--b", "2", "--table"), 0,
     "cd97889548c27c389187d273dc9377aff196425525ff8bc00c30f2d7bf59669a"),
    (("derive", "--family", "heisenberg", "--n", "2", "--a", "1+2i", "--json"), 0,
     "40356da52e8c8f9a547d0977239ba1987d67589254ccc1b1cfc963857512c596"),
    (("derive", "--family", "heisenberg", "--n", "3", "--a", "1/2", "--table"), 0,
     "ffbd9338e2d8ebdef814db0215b79d8086b180c2e63f82101942a33fc001a1bb"),
    (("derive", "--family", "heisenberg", "--n", "6", "--a", "1+2i", "--json"), 0,
     "1c8c5789dbcf49e6ff2e23c25e70524c621aa4d609eedb29db80d9eeaf780957"),
    (("derive", "--family", "heisenberg", "--n", "3", "--a", "i", "--table"), 0,
     "c0adaab9296b96480c3ac819b6f9aca72fa4cdd31cda9fb3f390d2997b2dbae9"),
    (("analyze", "--family", "heisenberg", "--n", "3", "--a", "1+2i", "--der"), 0,
     "cc7a2cbd0c63f53d1e20d89e38b8a437e988d61d02ebf2cad549f132618403ba"),
    (("derive", "--family", "heisenberg", "--n", "4", "--a", "1/3-2i"), 0,
     "1ba9326ce437cfd3f76daa13c0c79b232254d09e724726a8c88f7912ca21c9e4"),
    (("derive", "--family", "heisenberg-lie", "--n", "3", "--table"), 0,
     "67de84ce7e186c24752d6bfc2f911cee743ae24a6fc42e64c16ee1ad8c60b614"),
    (("derive", "--family", "realify-heisenberg", "--n", "2", "--a", "1",
      "--b", "2", "--table"), 0,
     "23e89900ccc984ef9834e49318777ff763a1fd7dcd87950e2b57dc183fa11fb5"),
    (("derive", "--family", "heisenberg-lie", "--n", "12"), 0,
     "28ce1943431da6bdd79dd4b9370ec7bf422b29688539a2bf65f33d2a9ad4c316"),
    (("derive", "--family", "heisenberg-lie", "--n", "12", "--json"), 0,
     "7ddbf743b4bc866821f236b6ccc497b04670b492a5dce19f0f34f3556cdff92f"),
    (("derive", "--family", "kronecker", "--n", "20", "--json"), 0,
     "3c851d85e5b444e7f1e8a2fb5c598da21cfd9d48cf8a7832b1868f06ccf76b04"),
    (("verify-paper", "--nmax", "10", "--json"), 1,
     "a88b8d85759ebd362627615f3aa264b413ff520d75773959cf719ac02df37fab"),
    (("verify-paper", "--nmax", "4"), 1,
     "ee7b4f02d765c8b23302bca5d9d8e9bd0a41b3142af84c763eea8d77f9175fdd"),
    # the benchmark's invocation form, and the only pin with a nonzero seed
    (("verify-paper", "--nmax", "3", "--json", "--seed", "7"), 1,
     "55ed3aadc0b3782a494c70d87b74ed0fd72c022e9342c2f6084b017033af6547"),
    # the elimination loop at sizes the smaller members do not reach
    (("derive", "--family", "heisenberg", "--n", "20", "--a", "2", "--json"), 0,
     "a6207301470a65db6db7fde9bbbb6711335271fccf282f28643a6fe962246e7b"),
    (("derive", "--family", "heisenberg", "--n", "20", "--a", "1+2i", "--json"), 0,
     "7c51ac6f759e189ea83a740afc84bacae276f446fd176823a093f0d7e2cdb9be"),
    (("derive", "--family", "realify-heisenberg", "--n", "10", "--a", "1",
      "--b", "2", "--json"), 0,
     "028ecfc6135e3de93b51be94c54ed46567f7bdbf5adf86abc51c6efb2690d956"),
]


@pytest.mark.parametrize("argv,code,digest", GOLDEN,
                         ids=[" ".join(g[0]) for g in GOLDEN])
def test_output_bytes_match_reference(argv, code, digest):
    out = io.StringIO()
    assert main(list(argv), out=out) == code
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


def _runs(exe, env) -> bool:
    return subprocess.run([exe, "-c", ""], env=env, capture_output=True).returncode == 0


def _interpreter_env(exe, version, env):
    """``env`` if ``exe`` runs under it, else ``env`` with ``PYENV_VERSION``
    naming the first installed ``version.*`` that the pyenv shim ``exe``
    runs; None if none runs."""
    if _runs(exe, env):
        return env
    pyenv = shutil.which("pyenv")
    if pyenv is None:
        return None
    root = subprocess.run([pyenv, "root"], capture_output=True, text=True).stdout
    installed = Path(root.strip(), "versions").glob(version + ".*")
    for path in sorted(installed):
        pinned = {**env, "PYENV_VERSION": path.name}
        if _runs(exe, pinned):
            return pinned
    return None


@pytest.mark.parametrize("version", ["3.10", "3.12", "3.13"])
def test_other_interpreters_print_the_same_bytes(version):
    # the report id reads CPython's built-in SHA-256, which moved from
    # _sha256 to _sha2 in 3.12
    exe = shutil.which("python" + version)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    env = exe and _interpreter_env(exe, version, env)
    if not env:
        pytest.skip("python%s is not installed" % version)
    argv = ["verify-paper", "--nmax", "1", "--json"]
    out = io.StringIO()
    code = main(argv, out=out)
    run = subprocess.run(
        [exe, "-c", "import sys; from derleib.cli import main; "
                    "sys.exit(main(sys.argv[1:]))", *argv],
        env=env, capture_output=True, timeout=60)
    assert (run.returncode, run.stdout) == (code, out.getvalue().encode())
