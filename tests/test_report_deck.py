"""The report deck: byte-identical CLI output across refactors.

Each run goes through ``cli.main`` in process on one fixed document.
The md5 of stdout + stderr and the exit code of every run are frozen;
they were captured before generator-product coordinates moved from an
SNF solve to their closed form, so any change to a report, a
certificate, an error line or an exit code shows up here by name.
Rings: Z, F_2[x], Q[x], Z/72 and F_3[x]/(x^4).  The ``verify-laws`` runs
need no document; they were captured before the oracle's hom search
became depth first and its law checks shared one loop.  The last five
runs carry long polynomial payloads (x -> x^(2^10) on the almost
ladder, (x^2+x)^31 over F_2[x], sixth powers over Q[x]); they
were captured before polynomial arithmetic moved from field-method
calls to native accumulation with one reduction per coefficient.  The
two long monomial towers, (x^3, y^2, xy) to level 30 and
(x^2, y^2, z^2, w^2, xyz) to level 6, were captured from the box
enumeration of standard monomials, before the order-function walk.
The runs on the second document (``@2``: x over F_2[x] to level 300,
and Q[x] ideals with non-integer coefficients) were captured while
every generator product was still multiplied out from 1, before
products were carried up from one degree to the next.  They live in a
document of their own so that the name lists of the error runs above
stay as frozen.  The run after them, the almost ladder at depth 14 with
its witness (t = u_14^16384), was captured while ladder payloads were
still dense coefficient tuples, before they became term lists.  After it,
``graded`` on the integral Q[x] ideal (x + 3) to level 10 was captured
while every Q coefficient was a ``Fraction``, before integral ones
became ints and one-row Hermite forms a gcd chain.
"""

import contextlib
import hashlib
import io
import json

import pytest

from adic_smith.cli import main

DECK_DOC = {
    "rings": {
        "Z": {"kind": "integers"},
        "F2x": {"kind": "poly", "coeff": {"fp": 2}, "var": "x"},
        "Qx": {"kind": "poly", "coeff": "rationals", "var": "x"},
        "Z72": {"kind": "mod", "n": 72},
        "F3q": {"kind": "quotient", "base": {"kind": "poly", "coeff": {"fp": 3}, "var": "x"},
                "modulus": "x^4"},
    },
    "modules": {
        "T8": {"ring": "Z", "generators": 1, "relations": [[8]]},
        "Z2": {"ring": "Z", "generators": 2, "relations": [[4, 6]]},
        "Fx": {"ring": "F2x", "generators": 1, "relations": [["x^3+x"]]},
        "Qm": {"ring": "Qx", "generators": 1, "relations": [["x^2-1"]]},
        "M72": {"ring": "Z72", "generators": 1, "relations": [[12]]},
        "Mq": {"ring": "F3q", "generators": 1, "relations": []},
    },
    "ideals": {
        "z2": {"ring": "Z", "generators": [2]},
        "z4": {"ring": "Z", "generators": [4]},
        "z46": {"ring": "Z", "generators": [4, 6]},
        "zunit": {"ring": "Z", "generators": [6, 10, 15, 4]},
        "z2w": {"ring": "Z", "generators": [12, 20, 30, 8]},
        "z3m": {"ring": "Z", "generators": [3, 6], "ambient_modulus": 27},
        "fx": {"ring": "F2x", "generators": ["x^2+x", "x^3"]},
        "fx2": {"ring": "F2x", "generators": ["x^2+x"]},
        "qx": {"ring": "Qx", "generators": ["x^2-1", "x^3-x"]},
        "q72": {"ring": "Z72", "generators": [6, 4]},
        "q72b": {"ring": "Z72", "generators": [6]},
        "qq": {"ring": "F3q", "generators": ["x", "x^2+x"]},
    },
    "maps": {
        "same": {"source": "z2", "target": "z2", "top": [[1]], "bottom": [[1]]},
        "embed": {"source": "z2", "target": "z4", "top": [[1]], "bottom": [[2]]},
        "fsame": {"source": "fx", "target": "fx", "top": [[1, 0], [0, 1]], "bottom": [[1]]},
        "q72id": {"source": "q72b", "target": "q72b", "top": [[1]], "bottom": [[1]]},
    },
}

LONG_DOC = {
    "rings": {
        "F2x": {"kind": "poly", "coeff": {"fp": 2}, "var": "x"},
        "Qx": {"kind": "poly", "coeff": "rationals", "var": "x"},
    },
    "ideals": {
        "fxx": {"ring": "F2x", "generators": ["x"]},
        "qlin": {"ring": "Qx", "generators": ["1/2*x + 1/3"]},
        "qfr": {"ring": "Qx", "generators": ["2/3*x^2 - 1/2", "x^3 + 5/7*x"]},
        "qint": {"ring": "Qx", "generators": ["x + 3"]},
    },
}

# (id, argv); "@" and "@2" stand for the paths of DECK_DOC and LONG_DOC.
DECK = [
    ("tower-z2", ["tower", "--input", "@", "--ideal", "z2", "--levels", "3"]),
    ("tower-z46-cert", ["tower", "--input", "@", "--ideal", "z46", "--levels", "3", "--with-certificates"]),
    ("tower-zunit", ["tower", "--input", "@", "--ideal", "zunit", "--levels", "3"]),
    ("tower-z3m-cert", ["tower", "--input", "@", "--ideal", "z3m", "--levels", "3", "--with-certificates"]),
    ("tower-fx", ["tower", "--input", "@", "--ideal", "fx", "--levels", "3"]),
    ("tower-fx-cert", ["tower", "--input", "@", "--ideal", "fx", "--levels", "2", "--with-certificates"]),
    ("tower-qx", ["tower", "--input", "@", "--ideal", "qx", "--levels", "3", "--with-certificates"]),
    ("tower-q72", ["tower", "--input", "@", "--ideal", "q72", "--levels", "3"]),
    ("tower-q72-cert", ["tower", "--input", "@", "--ideal", "q72", "--levels", "2", "--with-certificates"]),
    ("tower-qq-cert", ["tower", "--input", "@", "--ideal", "qq", "--levels", "3", "--with-certificates"]),
    ("tower-qq-table", ["tower", "--input", "@", "--ideal", "qq", "--levels", "2", "--format", "table"]),
    ("tower-monomial", ["tower", "--engine", "monomial", "--ideal", "x^2,x*y,y^3", "--vars", "x,y",
                        "--levels", "3"]),
    ("tower-monomial-q", ["tower", "--engine", "monomial", "--ideal", "x^2,y^2", "--vars", "x,y",
                          "--ring", "Q", "--levels", "2", "--format", "table"]),
    ("graded-z2", ["graded", "--input", "@", "--ideal", "z2", "--levels", "3"]),
    ("graded-z46-cert", ["graded", "--input", "@", "--ideal", "z46", "--levels", "3", "--with-certificates"]),
    ("graded-zunit", ["graded", "--input", "@", "--ideal", "zunit", "--levels", "3", "--with-certificates"]),
    ("graded-z2w", ["graded", "--input", "@", "--ideal", "z2w", "--levels", "3"]),
    ("graded-z3m-cert", ["graded", "--input", "@", "--ideal", "z3m", "--levels", "3", "--with-certificates"]),
    ("graded-fx", ["graded", "--input", "@", "--ideal", "fx", "--levels", "2"]),
    ("graded-fx-cert", ["graded", "--input", "@", "--ideal", "fx", "--levels", "2", "--with-certificates"]),
    ("graded-fx2", ["graded", "--input", "@", "--ideal", "fx2", "--levels", "3"]),
    ("graded-qx", ["graded", "--input", "@", "--ideal", "qx", "--levels", "2", "--with-certificates"]),
    ("graded-q72", ["graded", "--input", "@", "--ideal", "q72", "--levels", "3"]),
    ("graded-q72-cert", ["graded", "--input", "@", "--ideal", "q72", "--levels", "3", "--with-certificates"]),
    ("graded-qq", ["graded", "--input", "@", "--ideal", "qq", "--levels", "3", "--with-certificates"]),
    ("graded-qq-table", ["graded", "--input", "@", "--ideal", "qq", "--levels", "2", "--format", "table"]),
    ("complete-z2", ["complete-check", "--input", "@", "--ideal", "z2", "--levels", "3"]),
    ("complete-z46-cert", ["complete-check", "--input", "@", "--ideal", "z46", "--levels", "3",
                           "--with-certificates"]),
    ("complete-z3m", ["complete-check", "--input", "@", "--ideal", "z3m", "--levels", "3"]),
    ("complete-fx", ["complete-check", "--input", "@", "--ideal", "fx", "--levels", "2"]),
    ("complete-fx-cert", ["complete-check", "--input", "@", "--ideal", "fx", "--levels", "2",
                          "--with-certificates"]),
    ("complete-qx", ["complete-check", "--input", "@", "--ideal", "qx", "--levels", "2"]),
    ("complete-q72-cert", ["complete-check", "--input", "@", "--ideal", "q72", "--levels", "3",
                           "--with-certificates"]),
    ("complete-qq", ["complete-check", "--input", "@", "--ideal", "qq", "--levels", "3"]),
    ("analytic-same", ["analytic-check", "--input", "@", "--map", "same", "--levels", "3"]),
    ("analytic-embed", ["analytic-check", "--input", "@", "--map", "embed", "--levels", "3"]),
    ("analytic-embed-cert", ["analytic-check", "--input", "@", "--map", "embed", "--levels", "2",
                             "--with-certificates"]),
    ("analytic-fsame-cert", ["analytic-check", "--input", "@", "--map", "fsame", "--levels", "2",
                             "--with-certificates"]),
    ("analytic-q72", ["analytic-check", "--input", "@", "--map", "q72id", "--levels", "3"]),
    ("adic-z2-T8", ["adic-module", "--input", "@", "--ideal", "z2", "--module", "T8", "--levels", "3"]),
    ("adic-z46-Z2-cert", ["adic-module", "--input", "@", "--ideal", "z46", "--module", "Z2", "--levels", "2",
                          "--with-certificates"]),
    ("adic-z3m-T8", ["adic-module", "--input", "@", "--ideal", "z3m", "--module", "T8", "--levels", "2"]),
    ("adic-fx-Fx", ["adic-module", "--input", "@", "--ideal", "fx", "--module", "Fx", "--levels", "2"]),
    ("adic-qx-Qm-cert", ["adic-module", "--input", "@", "--ideal", "qx", "--module", "Qm", "--levels", "2",
                         "--with-certificates"]),
    ("adic-q72-M72", ["adic-module", "--input", "@", "--ideal", "q72", "--module", "M72", "--levels", "3"]),
    ("adic-qq-Mq-cert", ["adic-module", "--input", "@", "--ideal", "qq", "--module", "Mq", "--levels", "2",
                         "--with-certificates"]),
    ("yekutieli-z2", ["yekutieli", "--input", "@", "--ideal", "z2", "--levels", "3"]),
    ("yekutieli-z46", ["yekutieli", "--input", "@", "--ideal", "z46", "--levels", "3"]),
    ("yekutieli-zunit", ["yekutieli", "--input", "@", "--ideal", "zunit", "--levels", "3"]),
    ("yekutieli-z3m", ["yekutieli", "--input", "@", "--ideal", "z3m", "--levels", "3"]),
    ("yekutieli-fx", ["yekutieli", "--input", "@", "--ideal", "fx", "--levels", "2"]),
    ("yekutieli-qx", ["yekutieli", "--input", "@", "--ideal", "qx", "--levels", "2"]),
    ("yekutieli-q72", ["yekutieli", "--input", "@", "--ideal", "q72", "--levels", "3"]),
    ("yekutieli-qq-table", ["yekutieli", "--input", "@", "--ideal", "qq", "--levels", "3", "--format", "table"]),
    ("almost", ["almost", "--depth", "3", "--levels", "2"]),
    ("almost-cert", ["almost", "--depth", "3", "--levels", "3", "--with-certificates"]),
    ("almost-witness", ["almost", "--depth", "3", "--levels", "2", "--witness"]),
    ("almost-witness-cert", ["almost", "--depth", "2", "--levels", "3", "--witness", "--with-certificates"]),
    ("yekutieli-level0", ["yekutieli", "--input", "@", "--ideal", "z2", "--levels", "0"]),
    ("graded-no-ideal", ["graded", "--input", "@", "--ideal", "nope", "--levels", "2"]),
    ("adic-no-module", ["adic-module", "--input", "@", "--ideal", "z2", "--levels", "2"]),
    ("verify-laws-z2", ["verify-laws", "--ring", "z2"]),
    ("verify-laws-z3-table", ["verify-laws", "--ring", "z3", "--format", "table"]),
    ("verify-laws-z4", ["verify-laws", "--ring", "z4"]),
    ("verify-laws-f2x", ["verify-laws", "--ring", "f2x"]),
    ("verify-laws-z4-subset", ["verify-laws", "--ring", "z4", "--laws", "box_assoc,embed_adjunctions"]),
    ("verify-laws-unknown", ["verify-laws", "--ring", "z4", "--laws", "nope"]),
    ("almost-depth10-witness", ["almost", "--depth", "10", "--levels", "3", "--witness"]),
    ("tower-fx2-30-cert", ["tower", "--input", "@", "--ideal", "fx2", "--levels", "30", "--with-certificates"]),
    ("graded-qx-5", ["graded", "--input", "@", "--ideal", "qx", "--levels", "5"]),
    ("graded-fx-4", ["graded", "--input", "@", "--ideal", "fx", "--levels", "4"]),
    ("tower-qq-6-cert", ["tower", "--input", "@", "--ideal", "qq", "--levels", "6", "--with-certificates"]),
    ("tower-monomial-30", ["tower", "--engine", "monomial", "--ideal", "x^3,y^2,x*y", "--vars", "x,y",
                           "--levels", "30"]),
    ("tower-monomial-4v-f3", ["tower", "--engine", "monomial", "--ideal", "x^2,y^2,z^2,w^2,x*y*z",
                              "--vars", "x,y,z,w", "--ring", "F3", "--levels", "6"]),
    ("tower-fxx-300", ["tower", "--input", "@2", "--ideal", "fxx", "--levels", "300"]),
    ("tower-qlin-12-cert", ["tower", "--input", "@2", "--ideal", "qlin", "--levels", "12",
                            "--with-certificates"]),
    ("graded-qfr-3", ["graded", "--input", "@2", "--ideal", "qfr", "--levels", "3"]),
    ("almost-depth14-witness", ["almost", "--depth", "14", "--levels", "3", "--witness"]),
    ("graded-qint-10-cert", ["graded", "--input", "@2", "--ideal", "qint", "--levels", "10",
                             "--with-certificates"]),
]

# id -> (exit code, md5 of stdout + stderr)
FROZEN = {
    'tower-z2': (0, '73c3ff25b31b833c95dfe7dca082c7b7'),
    'tower-z46-cert': (0, '7e524b44d5b4e6116eea2d1c700b8d07'),
    'tower-zunit': (0, '0741703b65359a36f45925d880322f81'),
    'tower-z3m-cert': (0, '0055ce62a1e5e4d028f410427d52a271'),
    'tower-fx': (0, 'fdbc8c470e9551a6a23f374182572d5b'),
    'tower-fx-cert': (0, '0274d786c2e629b5cbfa9b8186fa0fcf'),
    'tower-qx': (0, 'eef426c94f53e71ce13be212e0ccdbc3'),
    'tower-q72': (0, '30182bc9fc8fea187e1ae1097be497a7'),
    'tower-q72-cert': (0, '92742236a0716221f5e32fc4672fc141'),
    'tower-qq-cert': (0, 'ca8521a95713f1e735c42e84e61c5516'),
    'tower-qq-table': (0, '92effe9fa99b6a0405129de24d5ec0f0'),
    'tower-monomial': (0, 'e3852d88897325f3fe1bb1de24ce01ac'),
    'tower-monomial-q': (0, '06d560402e78719e677b6d266f53ef6e'),
    'graded-z2': (0, 'be801254e823fbd0fd462074f8f4d8ec'),
    'graded-z46-cert': (0, 'bdfbf8499f1c4ee028ece2370d70f5f7'),
    'graded-zunit': (0, 'e697912fcc73d8f3bf73f7727ec68b91'),
    'graded-z2w': (0, 'bf2e87e7952fef2b6dc385eb9b7c3289'),
    'graded-z3m-cert': (0, '04ba8afbe69183cb87bb7c3b49f8c662'),
    'graded-fx': (0, '8af5e7484caa11c6960d164c8047961f'),
    'graded-fx-cert': (0, 'c9f5ec5d68f1023bc1239baa1b5760c3'),
    'graded-fx2': (0, 'f0a2ea772bce243ec293a244400559e8'),
    'graded-qx': (0, '8f1192b93f03ee22a95df988058f916e'),
    'graded-q72': (0, 'cb6b1a7aa39938383da72f5cc4f5e226'),
    'graded-q72-cert': (0, '9ec15e02469361ae842863378ad617ed'),
    'graded-qq': (0, '18f8f154329d69d8d93d5744fa0763af'),
    'graded-qq-table': (0, '1e391d51069c1cb4533517940aa84439'),
    'complete-z2': (0, 'dc67d5d4b08c6acbd3de4af5998ea0e1'),
    'complete-z46-cert': (0, '2367f297713fc5a00fbe26adc28a1c18'),
    'complete-z3m': (0, '1b680717deb195250852b672322fc1c5'),
    'complete-fx': (0, 'ea5e08081ab04ef7d946c880c396127d'),
    'complete-fx-cert': (0, '028d837c5bd8e89e34a2dac368ba395d'),
    'complete-qx': (0, 'd870ea9ca3d33749092edf818511a67e'),
    'complete-q72-cert': (0, '3ccb5550681391f30b06bbd965a42168'),
    'complete-qq': (0, '637eb524826ca16127da79a532acb0a4'),
    'analytic-same': (0, '5b804a5586f891536bb279c64b36900a'),
    'analytic-embed': (1, '9897f1e11dd0fee487749c9572481a1a'),
    'analytic-embed-cert': (1, 'f80e94e8a43f9a2d65a4cd7542f45218'),
    'analytic-fsame-cert': (0, '3dc59642e6097e31d14c80525ca9508e'),
    'analytic-q72': (0, 'dc75737927da95ab69b517efb98b0e9c'),
    'adic-z2-T8': (0, 'dc02ef7cab7285153fa036ea61d9aafc'),
    'adic-z46-Z2-cert': (0, '3908aa9c8dac0d9cfd7ec10423002a0b'),
    'adic-z3m-T8': (0, '9d447e6319008484d4e6e1dd2e990c51'),
    'adic-fx-Fx': (0, 'd1a3cf82e1546b6c9d9e978d845d4538'),
    'adic-qx-Qm-cert': (0, '31ea5aeb83676d02f9bf6209c3e5cde9'),
    'adic-q72-M72': (0, 'a8c9b2f04f048d7e83334e6d63c71b20'),
    'adic-qq-Mq-cert': (0, 'b6ddfecdce0102f8e09f93d360de9702'),
    'yekutieli-z2': (0, '434755864ece5433cf39c284bb363f57'),
    'yekutieli-z46': (0, 'b0bf56a44b5ff64e5b370672b2815e5a'),
    'yekutieli-zunit': (0, '46bd0b959e7649fe1a1ee2bbc3ee45c8'),
    'yekutieli-z3m': (0, 'b2f322bafba5b891ab6a6028174c6859'),
    'yekutieli-fx': (0, '228a7a6cc9d6a6521562d19d8c89beca'),
    'yekutieli-qx': (0, '94ba8a08ced32f356c40ce8daa0ee4f3'),
    'yekutieli-q72': (0, '7a547d7e97682ae7c7dfff94537fe7a1'),
    'yekutieli-qq-table': (0, '5d23cf902b66b46593af5a89fd11731a'),
    'almost': (0, '40e051f6a61b744e4c702cb6f408f820'),
    'almost-cert': (0, '6abda25a90ff50c0f546ef6fd19f6765'),
    'almost-witness': (1, '8fb175a87578cf084bdfb381a7f89c87'),
    'almost-witness-cert': (1, '286433ec357d53601197498ef4f83a3e'),
    'yekutieli-level0': (2, '9386d8f07a51106347f8e58670a93aa6'),
    'graded-no-ideal': (2, '51f1ee28177ac2d12b8c9565d7a3d221'),
    'adic-no-module': (2, '2e344cb3d3bffada506b459aba898a8e'),
    'verify-laws-z2': (0, '482dcc3e67ff8588af03b3a11848d839'),
    'verify-laws-z3-table': (0, '153db0bf649baefcdf155bde06fc7bce'),
    'verify-laws-z4': (0, '55dd590fd298b521c6df0639555b308d'),
    'verify-laws-f2x': (0, 'b1529e0948f6784d1b6d10e34c1f86ab'),
    'verify-laws-z4-subset': (0, '772b8448047e654ef33f2c2aa14a4fda'),
    'verify-laws-unknown': (2, '5cca72557d94519d5436a62cc46c9e6d'),
    'almost-depth10-witness': (1, '08eb3d366235c814dd2011bce086a412'),
    'tower-fx2-30-cert': (0, 'cd92e455178e5034a817a72b4a5e328e'),
    'graded-qx-5': (0, '04f60dee91048ed56923bbea03a1b5f5'),
    'graded-fx-4': (0, '06c8c14572a8c971d9ef8e5ecfd669f3'),
    'tower-qq-6-cert': (0, '5d9ca2531bbc87ddf5bbd7bdfe7eb6c1'),
    'tower-monomial-30': (0, 'd09bd0fc7b5e853f919d6839b8fd1bc9'),
    'tower-monomial-4v-f3': (0, 'fbc2f5e24e1562c5b8d81e90ee72a19c'),
    'tower-fxx-300': (0, '6c3e2e33fd7f52413cda435d01a5931d'),
    'tower-qlin-12-cert': (0, '3ec33823f46ad95886d1472b30151fba'),
    'graded-qfr-3': (0, 'ccb672a9effd0859e9172f961849ebdc'),
    'almost-depth14-witness': (1, '91ea02578e60b937989b18f8f937b6b8'),
    'graded-qint-10-cert': (0, 'f63fdb906ffaf6f2d47e4b758dc88f2b'),
}


def _run(doc_paths, argv):
    argv = [doc_paths.get(a, a) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, hashlib.md5((out.getvalue() + err.getvalue()).encode()).hexdigest()


@pytest.fixture(scope="module")
def deck_doc(tmp_path_factory):
    """The document paths by placeholder."""
    d = tmp_path_factory.mktemp("deck")
    paths = {}
    for mark, doc, name in (("@", DECK_DOC, "deck.json"), ("@2", LONG_DOC, "long.json")):
        (d / name).write_text(json.dumps(doc))
        paths[mark] = str(d / name)
    return paths


def test_deck_covers_every_run():
    assert [run_id for run_id, _ in DECK] == list(FROZEN)


@pytest.mark.parametrize("run_id,argv", DECK, ids=[run_id for run_id, _ in DECK])
def test_report_is_byte_identical(deck_doc, run_id, argv):
    assert _run(deck_doc, argv) == FROZEN[run_id]
