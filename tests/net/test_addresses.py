"""Unit tests for MAC and IPv4 address value objects."""

import pytest

from repro.errors import AddressError
from repro.net.addresses import BROADCAST_MAC, IPAddress, MacAddress


class TestMacAddress:
    def test_parse_and_format_roundtrip(self):
        mac = MacAddress("02:00:00:00:00:01")
        assert str(mac) == "02:00:00:00:00:01"

    def test_str_is_rendered_once_and_survives_copy_and_pickle(self):
        import pickle

        mac = MacAddress(0x02_00_5e_00_ab_01)
        assert str(mac) is str(mac) == "02:00:5e:00:ab:01"
        assert str(MacAddress(mac)) == str(pickle.loads(pickle.dumps(mac))) \
            == "02:00:5e:00:ab:01"
        ip = IPAddress("10.0.1.200")
        assert str(ip) is str(ip) == "10.0.1.200"
        assert str(IPAddress(ip)) == str(pickle.loads(pickle.dumps(ip))) \
            == "10.0.1.200"

    def test_dash_separator_accepted(self):
        assert MacAddress("02-00-00-00-00-01") == MacAddress("02:00:00:00:00:01")

    def test_from_int(self):
        assert str(MacAddress(1)) == "00:00:00:00:00:01"

    def test_copy_constructor(self):
        mac = MacAddress("02:00:00:00:00:01")
        assert MacAddress(mac) == mac

    def test_unicast_is_not_multicast(self):
        assert not MacAddress("02:00:00:00:00:01").is_multicast

    def test_group_bit_means_multicast(self):
        # 0x03 has the low bit of the first octet set.
        assert MacAddress("03:00:5e:00:00:64").is_multicast
        assert MacAddress("01:00:5e:00:00:01").is_multicast

    def test_broadcast_is_multicast(self):
        assert BROADCAST_MAC.is_multicast
        assert BROADCAST_MAC.is_broadcast

    def test_equality_and_hash(self):
        a = MacAddress("02:00:00:00:00:01")
        b = MacAddress("02:00:00:00:00:01")
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_ordering(self):
        assert MacAddress(1) < MacAddress(2)

    @pytest.mark.parametrize("bad", ["", "02:00", "zz:00:00:00:00:01",
                                     "02:00:00:00:00:01:02"])
    def test_malformed_strings_rejected(self, bad):
        with pytest.raises(AddressError):
            MacAddress(bad)

    def test_out_of_range_int_rejected(self):
        with pytest.raises(AddressError):
            MacAddress(1 << 48)
        with pytest.raises(AddressError):
            MacAddress(-1)

    def test_wrong_type_rejected(self):
        with pytest.raises(AddressError):
            MacAddress(1.5)


class TestIPAddress:
    def test_parse_and_format_roundtrip(self):
        assert str(IPAddress("10.0.0.100")) == "10.0.0.100"

    def test_from_int(self):
        assert str(IPAddress(0x0A000001)) == "10.0.0.1"
        assert IPAddress("10.0.0.1").value == 0x0A000001

    def test_copy_constructor(self):
        ip = IPAddress("1.2.3.4")
        assert IPAddress(ip) == ip

    def test_in_subnet(self):
        assert IPAddress("10.0.0.5").in_subnet(IPAddress("10.0.0.0"), 24)
        assert not IPAddress("10.0.1.5").in_subnet(IPAddress("10.0.0.0"), 24)
        assert IPAddress("10.0.1.5").in_subnet(IPAddress("10.0.0.0"), 16)

    def test_in_subnet_edge_prefixes(self):
        assert IPAddress("200.1.1.1").in_subnet(IPAddress("0.0.0.0"), 0)
        assert IPAddress("10.0.0.1").in_subnet(IPAddress("10.0.0.1"), 32)
        assert not IPAddress("10.0.0.2").in_subnet(IPAddress("10.0.0.1"), 32)

    def test_bad_prefix_rejected(self):
        with pytest.raises(AddressError):
            IPAddress("10.0.0.1").in_subnet(IPAddress("10.0.0.0"), 33)

    @pytest.mark.parametrize("bad", ["", "10.0.0", "10.0.0.256",
                                     "10.0.0.0.1", "a.b.c.d"])
    def test_malformed_strings_rejected(self, bad):
        with pytest.raises(AddressError):
            IPAddress(bad)

    def test_out_of_range_int_rejected(self):
        with pytest.raises(AddressError):
            IPAddress(1 << 32)

    def test_equality_hash_ordering(self):
        a, b = IPAddress("10.0.0.1"), IPAddress("10.0.0.2")
        assert a == IPAddress("10.0.0.1")
        assert a < b
        assert len({a, IPAddress("10.0.0.1")}) == 1
