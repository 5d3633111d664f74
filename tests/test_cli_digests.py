"""Byte identity of the CLI's output: SHA-256 digests of stdout for psod,
decompose, strictify, monoid and kummer on the test scenes, in JSON and text.

The digests were recorded from the commands' output before the psod label
generator and writer were rewritten, but for the JSON of the two psod-odd
calls, re-pinned when psod JSON began to list a label's stratum in
component order.  The monoid and kummer digests were recorded before
extremal rays and faces were read off integer facet normals; kummer has no
square-cone pin, as that cone is not simplicial and kummer refuses it
(tests/test_cli.py checks the refusal).  Any change to the bytes of these outputs has to be
deliberate and shows here.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest

from logsod.cli import EXIT_OK, main
from test_cli import (
    A1_SCENE,
    CHART_SCENE,
    LINE_SCENE,
    NODAL_SCENE,
    P2_SCENE,
    SQUARE_SCENE,
    THIRD_SCENE,
    TWO_NODE_SCENE,
)

# Labels that need JSON escapes and non-ASCII text, in no sorted order.
ODD_SCENE = {
    "kind": "snc",
    "components": ['say "hi"', "Dé", 7],
    "nonempty": [[], ['say "hi"'], ["Dé"], [7], ["Dé", 7]],
}

DOUBLED_SIMPLEX_SCENE = {
    "kind": "monoid",
    "rank": 3,
    "generators": [[1, 1, 0], [1, 0, 1], [0, 1, 1], [1, 1, 1]],
}

CALLS = {
    "psod-line-3": (LINE_SCENE, ["psod", "--level", "3"]),
    "psod-line-7": (LINE_SCENE, ["psod", "--level", "7"]),
    "psod-line-5-standard": (LINE_SCENE, ["psod", "--level", "5", "--order", "standard"]),
    "psod-three-2": (P2_SCENE, ["psod", "--level", "2"]),
    "psod-three-4": (P2_SCENE, ["psod", "--level", "4"]),
    "psod-three-6,6,6": (P2_SCENE, ["psod", "--level", "6,6,6"]),
    "psod-three-2,3,2-standard": (P2_SCENE, ["psod", "--level", "2,3,2", "--order", "standard"]),
    "psod-odd-3": (ODD_SCENE, ["psod", "--level", "3"]),
    "psod-odd-2,3,1-standard": (ODD_SCENE, ["psod", "--level", "2,3,1", "--order", "standard"]),
    "psod-nodal-3": (NODAL_SCENE, ["psod", "--level", "3"]),
    "psod-two-node-2": (TWO_NODE_SCENE, ["psod", "--level", "2"]),
    "psod-chart-3": (CHART_SCENE, ["psod", "--level", "3"]),
    "decompose-line-5": (LINE_SCENE, ["decompose", "--level", "5"]),
    "decompose-three-5": (P2_SCENE, ["decompose", "--level", "5"]),
    "decompose-three-6-prime-2": (P2_SCENE, ["decompose", "--level", "6", "--prime-to", "2"]),
    "decompose-nodal-3": (NODAL_SCENE, ["decompose", "--level", "3"]),
    "decompose-chart-6": (CHART_SCENE, ["decompose", "--level", "6"]),
    "strictify-nodal": (NODAL_SCENE, ["strictify"]),
    "strictify-two-node": (TWO_NODE_SCENE, ["strictify"]),
    "monoid-readme": (A1_SCENE, ["monoid"]),
    "monoid-third": (THIRD_SCENE, ["monoid"]),
    "monoid-doubled-simplex": (DOUBLED_SIMPLEX_SCENE, ["monoid"]),
    "monoid-square": (SQUARE_SCENE, ["monoid"]),
    "kummer-readme": (A1_SCENE, ["kummer"]),
    "kummer-third": (THIRD_SCENE, ["kummer"]),
    "kummer-doubled-simplex": (DOUBLED_SIMPLEX_SCENE, ["kummer"]),
}

DIGESTS = {
    "decompose-chart-6:json": "7edd27cb2aec2141cd64722b227d8991a626b63e83a6f8178c2da522b4d5246e",
    "decompose-chart-6:text": "c659cf41248be55f7cd90da8f80e54b14cd595d61b505d03b4827c0103a272fb",
    "decompose-line-5:json": "e88ddb291a1f260ddd9d818fa020fbbe97ef32d2453e656e0be4394e19ff0569",
    "decompose-line-5:text": "c7ad14e55de8e434bdd31aad2c6b579ce7a937ebe32a0d765c861b132558a32c",
    "decompose-nodal-3:json": "9f0bc375f760234e96fb438f145979523992a49d265548d3cff1768e59613c04",
    "decompose-nodal-3:text": "2cabfc09f4182e8a2a119cb86251c930dcd909dd461fdc554ba8821c94149187",
    "decompose-three-5:json": "df65fd1e85a18fd7bc15af198ad99a02507ba154e17fd70ba7a9306970586748",
    "decompose-three-5:text": "39b2950cc917366a053552fe28437cda1cc0efbba4e47fb563b0bbcda6b4a492",
    "decompose-three-6-prime-2:json": "63bd7ffdf9ee8fb473afe4a1849ad2009d7c3f201e86baa52c3f93694bc0caae",
    "decompose-three-6-prime-2:text": "72aad9ad358795d29bbd406216d6c75e27347d4c0e9c89ec8be8c8dd904faff2",
    "kummer-doubled-simplex:json": "c742b23d9ac25086a5456689db4b4df763d0332a2a760834f4ae2b26a26baf55",
    "kummer-doubled-simplex:text": "6ad70f636d7e0e14a49193bbf3dfdc51e71481365cdc0618699d4bcea52a3ed3",
    "kummer-readme:json": "2870bb74a9365e72f6257e27548436b96b6f5fa16f5ced3a9ebd9f6f2b150037",
    "kummer-readme:text": "5b38f7375c907d3ccc2d861c1a6cf49e8cd8be224f2a7ab20e6014cf034b5eb6",
    "kummer-third:json": "424fed1708bcd13416d1172263c70dd61ec0f70d4278acfa0bec6ed0c098122a",
    "kummer-third:text": "dc48dfb7b78163d942572b92b8578dec8d8071a789ab654212f78c12c388356f",
    "monoid-doubled-simplex:json": "e4fe4ee73113851a42aa058485d91ff4535caf94911afe9ab3c6e0da2cf64270",
    "monoid-doubled-simplex:text": "a2e6616408dd8abbd0b5b3872295b756d81bb51de0f4b25a88be50865f9eb6b4",
    "monoid-readme:json": "bc4149acbfb9540154f92918cadbf93cc19d22c7abd808713f13e09bf5b885fa",
    "monoid-readme:text": "ac8e072585cdcdf18ed1b31a0da50f474571b3c726294d2e971b96d5d737e936",
    "monoid-square:json": "d2cea7d2ab822f7dddd38b3ef68f2fa4ec79a81726c002561c3d3d2d2da529f4",
    "monoid-square:text": "01f94eb738316107794ec869fa471ed0d773890ce58bb8b41f582498ccd051f7",
    "monoid-third:json": "58b0e86d33a9a3f29c02bbbfdae550cde534ea69342e136f6bf42f2d10eab86d",
    "monoid-third:text": "183e563ccd545f37ea767fa00d5bbb35b253025a8d5050b2348c05f97a85f526",
    "psod-chart-3:json": "37f6c5dc849023712284cb5d51daa042fb4e74b035afa64911f6c1833674dbdf",
    "psod-chart-3:text": "9626774fb110ac67c5f7684806764780f2161a0ce16b0f23bb3d20af928cc781",
    "psod-line-3:json": "954ce7bebdad6a97e41e52cc78a450a9ee29cf439a58d06f28fd0a003d3e8ace",
    "psod-line-3:text": "3fad0527054256efae074a29e59301a309d9f1132c48f8cb4698a954be01f705",
    "psod-line-5-standard:json": "1d5cbf1ffcd8718cad169219ac44ef5d2eb6b802b63e93031ba049e855eb28ce",
    "psod-line-5-standard:text": "e25bf32d576ad59e5e0734d9706c0760753cdaaea1e27c047c7b220da744b183",
    "psod-line-7:json": "3c57f804025a9b7943a28fc071f83e64dacaa99a92e67fedc08d973164afb9a0",
    "psod-line-7:text": "252857dfa6c0fc4a46396f580b7924b173b05e5b68ad67832de0e7fc315cc8d4",
    "psod-nodal-3:json": "8c8d79a0376239fbda6551f51e7b75c57955d401a4771e9157179b1cb13c0fa5",
    "psod-nodal-3:text": "6ed8762828f24d080689d14c758d80aba82852b7a96c1cf4b4953bdc424951bd",
    "psod-odd-2,3,1-standard:json": "d67c7f24238d0846c338c00f3ac5433391b833224576df28310790192778b890",
    "psod-odd-2,3,1-standard:text": "d74efd2e4ecc421a5c37dd26123546673d9674a59f16e8b6098c6b2895f70b35",
    "psod-odd-3:json": "ede8f034af82363f702104c8ea1f09a2dac35b4b893c78032d3c067cc2c109e7",
    "psod-odd-3:text": "502a63625ef84ae0c044972f21b8acb5a2b21dc3cca870c53922c0d0945b0064",
    "psod-three-2,3,2-standard:json": "23e094a4fbd3d0891e4162363898f5e2fb7bab4c0e6cd9c0bb2dba0541dc4193",
    "psod-three-2,3,2-standard:text": "a3e480fe81d4b96c067982f690629b007b664d8df76ddae88f825b92517fcd7e",
    "psod-three-2:json": "15ff0b32d47e836a8b096fda764f7b3c1a87853f6a920306862389f3a97f6a47",
    "psod-three-2:text": "76cbed93403373f8e63989a2a6f987dc8f1b1231008969222b0c42a6bf0cdbd8",
    "psod-three-4:json": "7d23bfb68eb480f8513d2cb58ed6600593d321742210546375211b3adddbe0b1",
    "psod-three-4:text": "5373595b2dbeefdb14ac472399fb45a6484f8574e1830fa860083142dd636889",
    "psod-three-6,6,6:json": "1a2edbda351eda2a5ac531956c19895cdad361c52fdad9aa7487ef9a7f903699",
    "psod-three-6,6,6:text": "7e5134b4c5cd566ff9848e8ec38804d19eba099daeea7a2e36de9bb3c1459c48",
    "psod-two-node-2:json": "00dc6cc8d2270fa00ef47648138269955f1e9fbfff018b06fb92a2c155520ce6",
    "psod-two-node-2:text": "e8269e7f2d187fef9b5c2450c9195c481cdf898c5ff31211dc307afcfffcfc94",
    "strictify-nodal:json": "3743ad0bbcefd4bdb1fa9b08751e5cad5377c536311222da3dd03fb03ec46cdf",
    "strictify-nodal:text": "13c4e1cc28262960338a758eb5f382f826722e124f9664d15a88191509e40454",
    "strictify-two-node:json": "5eb2a75cfd7ab52e0ed8efe749717d269ce200d2468bdc39e6f6a16710baf1b5",
    "strictify-two-node:text": "be0a678bc3c22733332fcccd7daa3fa6a93f208390d623339a71a4a3e11138a1",
}


def stdout_digest(scene: dict, argv: list) -> str:
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(json.dumps(scene))), \
            redirect_stdout(out), redirect_stderr(err):
        code = main([argv[0], "-", *argv[1:]])
    assert (code, err.getvalue()) == (EXIT_OK, "")
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("name", sorted(CALLS))
def test_stdout_bytes_are_pinned(name, fmt):
    scene, argv = CALLS[name]
    assert stdout_digest(scene, [*argv, "--format", fmt]) == DIGESTS[f"{name}:{fmt}"]
