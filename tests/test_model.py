import pytest

from ccnprobe.model import (ContentName, DataPacket, InterestPacket,
                            PROBE_OVERHEAD_BYTES, content_catalog, wire_size)


def probed_interest():
    return InterestPacket(ContentName("Atlanta", 3), nonce=7,
                          probe=ContentName("Chicago", 9),
                          probe_response=[1, 2, 3, 4, 5])


class TestWireSize:
    def test_basic_interest_is_5_bytes(self):
        interest = InterestPacket(ContentName("Atlanta", 0), nonce=1)
        assert wire_size(interest) == 5

    def test_probed_interest_is_27_bytes(self):
        assert wire_size(probed_interest()) == 27

    def test_basic_data_with_1kb_payload(self):
        data = DataPacket(ContentName("Atlanta", 0), provider_id=3,
                          payload_size=1024)
        assert wire_size(data) == 1029

    def test_probed_data_with_1kb_payload_is_1051_bytes(self):
        data = DataPacket(ContentName("Atlanta", 0), provider_id=3,
                          payload_size=1024, probe=ContentName("Chicago", 9),
                          probe_response=[1])
        assert wire_size(data) == 1024 + 5 + 22

    @pytest.mark.parametrize("payload", [0, 1, 128, 1024, 9000])
    def test_probe_overhead_is_exactly_22_bytes_for_data(self, payload):
        name = ContentName("P", 0)
        plain = DataPacket(name, provider_id=1, payload_size=payload)
        probed = DataPacket(name, provider_id=1, payload_size=payload,
                            probe=ContentName("Q", 1))
        assert wire_size(probed) - wire_size(plain) == 22

    def test_probe_overhead_is_exactly_22_bytes_for_interests(self):
        name = ContentName("P", 0)
        plain = InterestPacket(name, nonce=1)
        probed = InterestPacket(name, nonce=1, probe=ContentName("Q", 1))
        assert wire_size(probed) - wire_size(plain) == PROBE_OVERHEAD_BYTES == 22

    def test_probe_response_fill_level_does_not_change_wire_size(self):
        # The field is fixed-width: 5 slots of 4 bytes.
        name = ContentName("P", 0)
        half = InterestPacket(name, nonce=1, probe=ContentName("Q", 1),
                              probe_response=[1])
        full = InterestPacket(name, nonce=1, probe=ContentName("Q", 1),
                              probe_response=[1, 2, 3, 4, 5])
        assert wire_size(half) == wire_size(full) == 27

    def test_telemetry_fields_not_counted(self):
        # Only data packets carry telemetry (the hop count).
        data = DataPacket(ContentName("P", 0), provider_id=1, payload_size=0,
                          hop_count=9)
        assert wire_size(data) == 5

    def test_non_packet_rejected(self):
        with pytest.raises(TypeError):
            wire_size("not a packet")


class TestContentName:
    def test_rendered_form(self):
        assert str(ContentName("Atlanta", 0)) == "Atlanta/0"
        assert str(ContentName("Atlanta", 99)) == "Atlanta/99"

    def test_parse_round_trip(self):
        name = ContentName("R9", 123)
        assert ContentName.parse(str(name)) == name

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            ContentName.parse("noslash")

    def test_negative_seq_rejected(self):
        with pytest.raises(ValueError):
            ContentName("P", -1)

    def test_immutable_and_hashable(self):
        name = ContentName("P", 1)
        with pytest.raises(AttributeError):
            name.seq = 2
        with pytest.raises(AttributeError):
            name.prefix = "Q"
        with pytest.raises(AttributeError):
            name.extra = 0
        assert len({ContentName("P", 1), ContentName("P", 1)}) == 1

    @pytest.mark.parametrize("prefix, seq", [("P", 0), ("Atlanta", 7), ("", 3)])
    def test_hash_and_equality_are_the_tuples(self, prefix, seq):
        name = ContentName(prefix, seq)
        assert hash(name) == hash((prefix, seq))
        assert name == (prefix, seq) and (prefix, seq) == name
        assert name != (prefix, seq + 1)

    def test_ordering(self):
        pairs = [("B", 0), ("A", 2), ("A", 1), ("A", 10), ("AB", 0), ("B", 1),
                 ("A", 0)]
        names = [ContentName(p, s) for p, s in pairs]
        assert [tuple(n) for n in sorted(names)] == sorted(pairs)
        assert ContentName("A", 2) < ContentName("A", 10) < ContentName("B", 0)


class TestContentCatalog:
    def test_abilene_catalog_size(self):
        prefixes = [f"city{i}" for i in range(12)]
        assert len(content_catalog(prefixes, 100)) == 1200

    def test_sprint_catalog_size(self):
        prefixes = [f"R{i}" for i in range(8)]
        assert len(content_catalog(prefixes, 200)) == 1600

    def test_minimal_catalog(self):
        assert [str(n) for n in content_catalog(["P"], 1)] == ["P/0"]

    def test_names_are_unique(self):
        catalog = content_catalog(["a", "b", "c"], 50)
        assert len(set(catalog)) == len(catalog) == 150

    def test_sequences_cover_range(self):
        catalog = content_catalog(["P"], 5)
        assert [n.seq for n in catalog] == [0, 1, 2, 3, 4]

    def test_empty_producer_list_is_valid(self):
        assert content_catalog([], 10) == []

    def test_per_producer_must_be_positive(self):
        with pytest.raises(ValueError):
            content_catalog(["P"], 0)


def test_packet_clone_is_independent():
    interest = probed_interest()
    clone = interest.clone()
    clone.probe_response.append(9)
    assert interest.probe_response == [1, 2, 3, 4, 5]
    assert clone == InterestPacket(interest.name, interest.nonce, interest.probe,
                                   [1, 2, 3, 4, 5, 9])
    data = DataPacket(ContentName("P", 0), provider_id=2, probe_response=[1])
    dclone = data.clone()
    dclone.probe_response.append(2)
    dclone.hop_count += 1
    assert data.probe_response == [1]
    assert data.hop_count == 0
